"""Structural analyses on impulse responses: degradedness via nonnegative
deconvolution, capacity ordering checks, and monotonicity sweeps."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .bounds import SandwichBound, block_sandwich_bounds
from .channel import DEFAULT_TAIL_EPS, BlockChannelSpec, ChannelSpec, ImpulseResponse, InputGrid
from .solver import SolverConfig

_DUST = 1e-10  # negative recovery values above this are float noise
_GUARD_TAPS = 4


@dataclass(frozen=True)
class DegradednessReport:
    """Outcome of factoring p_prime = p * q with q nonnegative."""

    feasible: bool
    q: np.ndarray | None
    residual: float

    def __post_init__(self):
        if self.q is not None:
            q = np.asarray(self.q, dtype=np.float64)
            q.flags.writeable = False
            object.__setattr__(self, "q", q)


def check_degraded(p: ImpulseResponse, p_prime: ImpulseResponse,
                   tol: float = 1e-8) -> DegradednessReport:
    """Recover q with p * q = p_prime by recursive division.

    Both responses must be normalized (taps summing to 1) and p must have a
    positive leading tap, otherwise the deconvolution is ill-posed.  q is
    recovered out to the support of p_prime plus a guard band; feasibility
    requires every recovered tap >= -tol and total mass <= 1 + tol.  Small
    negative dust is clamped to zero in the reported q.

    The raw recursion amplifies rounding error like (max tap / p_0)^length
    when the leading tap is not dominant, so a feasible recovery is polished
    by nonnegative least squares before the residual is reported; a solution
    with residual below 1e-12 also counts as feasible even if the recursion
    signs drowned in that noise.
    """
    a = p.trimmed().as_array()
    b = p_prime.trimmed().as_array()
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError("degradedness is defined for normalized responses")
    if a[0] <= 0:
        raise ValueError("leading tap of p must be positive for deconvolution")
    n_q = b.size + _GUARD_TAPS
    b_pad = np.zeros(n_q)
    b_pad[: b.size] = b
    q = np.zeros(n_q)
    for i in range(n_q):
        acc = b_pad[i]
        lo = max(0, i - (a.size - 1))
        for j in range(lo, i):
            acc -= q[j] * a[i - j]
        q[i] = acc / a[0]
    signs_ok = bool(np.all(q >= -tol) and q.sum() <= 1.0 + tol)

    # Nonnegative least-squares polish on the full convolution window.
    n_rows = n_q + a.size - 1
    A = np.zeros((n_rows, n_q))
    for j in range(n_q):
        A[j: j + a.size, j] = a
    target = np.zeros(n_rows)
    target[: b.size] = b
    q_fit, _ = nnls(A, target)
    residual = float(np.max(np.abs(A @ q_fit - target)))

    feasible = (signs_ok or residual <= 1e-12) and q_fit.sum() <= 1.0 + tol
    if not feasible:
        return DegradednessReport(feasible=False, q=None, residual=residual)
    q_out = np.where((q_fit < 0) & (q_fit >= -_DUST), 0.0, q_fit)
    return DegradednessReport(feasible=True, q=q_out, residual=residual)


@dataclass(frozen=True)
class OrderingVerdict:
    """Comparison of the solved block bounds for p against a degraded p'."""

    status: str  # "consistent" | "flagged" | "not-applicable"
    bound_p: SandwichBound | None
    bound_p_prime: SandwichBound | None


def capacity_ordering_check(p: ImpulseResponse, p_prime: ImpulseResponse,
                            lambda0: float, amax: float, alpha: float,
                            grid: InputGrid, r: int = 1,
                            config: SolverConfig = SolverConfig(),
                            tol: float = 1e-6,
                            tail_eps: float = DEFAULT_TAIL_EPS) -> OrderingVerdict:
    """Check that the solved C_r values respect the degradedness order.

    Both responses are compared at a common memory order (p is zero-padded
    to the length of p'), which is what makes the ordering hold for the
    block bounds: any window feasible for p' maps through the factor q to a
    window feasible for p with the same output law and no more cost.  The
    exact ordering statement concerns true capacities; a violation on the
    computed surrogates is reported as "flagged" (try a larger r) rather
    than as a contradiction.  Pairs that do not factor are "not-applicable".
    """
    rep = check_degraded(p, p_prime)
    if not rep.feasible:
        return OrderingVerdict(status="not-applicable", bound_p=None,
                               bound_p_prime=None)
    p_taps = list(p.trimmed().taps)
    pp_taps = list(p_prime.trimmed().taps)
    width = max(len(p_taps), len(pp_taps))
    p_pad = ImpulseResponse(tuple(p_taps + [0.0] * (width - len(p_taps))))
    pp_pad = ImpulseResponse(tuple(pp_taps + [0.0] * (width - len(pp_taps))))
    spec_p = ChannelSpec(impulse=p_pad, lambda0=lambda0, amax=amax, alpha=alpha)
    spec_pp = ChannelSpec(impulse=pp_pad, lambda0=lambda0, amax=amax, alpha=alpha)
    b_p = block_sandwich_bounds(
        BlockChannelSpec(spec_p, grid, r=r, tail_eps=tail_eps), config)
    b_pp = block_sandwich_bounds(
        BlockChannelSpec(spec_pp, grid, r=r, tail_eps=tail_eps), config)
    ok = (b_p.lower <= b_p.upper) and (b_p.upper >= b_pp.upper - tol)
    return OrderingVerdict(status="consistent" if ok else "flagged",
                           bound_p=b_p, bound_p_prime=b_pp)


@dataclass(frozen=True)
class SweepVerdict:
    axis: str
    values: tuple
    c1: tuple
    direction: str  # "non-decreasing" | "non-increasing"
    monotone: bool


_AXIS_DIRECTION = {
    "alpha": "non-decreasing",
    "amax": "non-decreasing",
    "lambda0": "non-increasing",
}


def monotonicity_sweep(impulse: ImpulseResponse, axis: str, values,
                       base_lambda0: float, base_amax: float, base_alpha: float,
                       grid_points: int = 5,
                       config: SolverConfig = SolverConfig(),
                       slack: float = 1e-6) -> SweepVerdict:
    """Solve C_1 along one parameter axis and check the expected direction:
    capacity grows with the peak and the budget, shrinks with background
    noise.  The grid tracks the peak so every instance spans [0, amax]."""
    if axis not in _AXIS_DIRECTION:
        raise ValueError(f"axis must be one of {sorted(_AXIS_DIRECTION)}")
    values = [float(v) for v in values]
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("values must be sorted ascending")
    c1 = []
    for v in values:
        lambda0, amax, alpha = base_lambda0, base_amax, base_alpha
        if axis == "alpha":
            alpha = v
        elif axis == "amax":
            amax = v
        else:
            lambda0 = v
        spec = ChannelSpec(impulse=impulse, lambda0=lambda0, amax=amax, alpha=alpha)
        grid = InputGrid.uniform(amax, grid_points)
        c1.append(block_sandwich_bounds(BlockChannelSpec(spec, grid, r=1), config).upper)
    diffs = np.diff(c1)
    direction = _AXIS_DIRECTION[axis]
    if direction == "non-decreasing":
        monotone = bool(np.all(diffs >= -slack))
    else:
        monotone = bool(np.all(diffs <= slack))
    return SweepVerdict(axis=axis, values=tuple(values), c1=tuple(c1),
                        direction=direction, monotone=monotone)
