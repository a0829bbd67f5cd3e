"""Structural analyses on impulse responses: degradedness via nonnegative
deconvolution, capacity ordering checks, and monotonicity sweeps."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bounds import SandwichBound, _stationary, block_sandwich_bounds
from .channel import (DEFAULT_TAIL_EPS, BlockChannelSpec, ChannelSpec, ImpulseResponse,
                      InputGrid, _checked_grid, _freeze)
from .solver import SolverConfig


@dataclass(frozen=True)
class DegradednessReport:
    """Outcome of factoring p_prime = p * q with q nonnegative."""

    feasible: bool
    q: np.ndarray | None
    residual: float

    def __post_init__(self):
        if self.q is not None:
            object.__setattr__(self, "q", _freeze(self.q))


def check_degraded(p: ImpulseResponse, p_prime: ImpulseResponse,
                   tol: float = 1e-8) -> DegradednessReport:
    """Fit q >= 0 with p * q = p_prime by nonnegative least squares (Lawson
    & Hanson 1974).

    Both responses must be normalized (taps summing to 1) and p must have a
    positive leading tap, otherwise the deconvolution is ill-posed.  q has
    p_prime's length and the fit covers the full convolution window, whose
    rows past p_prime's support have target 0; a tap of q past that length
    would only add nonnegative mass to such rows, so the fit would leave it
    at 0.  The pair is degraded when the largest residual is at most tol and
    q carries mass at most 1 + tol.
    """
    # Imported here, not at module level, to keep SciPy off `import ltipc`.
    from scipy.linalg import convolution_matrix
    from scipy.optimize import nnls

    a = p.trimmed().as_array()
    b = p_prime.trimmed().as_array()
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError("degradedness is defined for normalized responses")
    if a[0] <= 0:
        raise ValueError("leading tap of p must be positive for deconvolution")
    A = convolution_matrix(a, b.size)
    target = np.zeros(A.shape[0])
    target[: b.size] = b
    q, _ = nnls(A, target)
    residual = float(np.max(np.abs(A @ q - target)))
    feasible = residual <= tol and q.sum() <= 1.0 + tol
    return DegradednessReport(feasible=feasible, q=q if feasible else None,
                              residual=residual)


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
    than as a contradiction.  Pairs that check_degraded does not factor, at
    its default tolerance, are "not-applicable".
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


def _sweep(spec: ChannelSpec, axis: str, values, grid_points: int, rs,
           config: SolverConfig, tail_eps: float = DEFAULT_TAIL_EPS, sides=()):
    """The bounds of the instances with axis set to each value, on a uniform
    grid spanning each new peak, as columns: the block bounds lower_r<r>,
    upper_r<r>, then stationary_<side> for each of sides."""
    if axis not in _AXIS_DIRECTION:
        raise ValueError(f"--axis must be one of {', '.join(_AXIS_DIRECTION)}, "
                         f"got {axis!r}")
    points = [replace(spec, **{axis: v}) for v in values]
    columns = {f"{side}_r{r}": [] for r in rs for side in ("lower", "upper")}
    columns.update({f"stationary_{side}": [] for side in sides})
    for point in points:
        grid = _checked_grid(point, grid_points, tail_eps)
        for r in dict.fromkeys(rs):
            bound = block_sandwich_bounds(
                BlockChannelSpec(point, grid, r=r, tail_eps=tail_eps), config)
            columns[f"lower_r{r}"].append(bound.lower)
            columns[f"upper_r{r}"].append(bound.upper)
        if sides:
            bound = _stationary(point, grid, config, tail_eps, sides)
            for side in sides:
                columns[f"stationary_{side}"].append(getattr(bound, side))
    return columns


def monotonicity_sweep(impulse: ImpulseResponse, axis: str, values,
                       base_lambda0: float, base_amax: float, base_alpha: float,
                       grid_points: int = 5,
                       config: SolverConfig = SolverConfig(),
                       slack: float = 1e-6) -> SweepVerdict:
    """Solve C_1 along one parameter axis and check the expected direction:
    capacity grows with the peak and the budget, shrinks with background
    noise.  The grid tracks the peak so every instance spans [0, amax]."""
    values = [float(v) for v in values]
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("values must be sorted ascending")
    base = ChannelSpec(impulse=impulse, lambda0=base_lambda0, amax=base_amax,
                       alpha=base_alpha)
    c1 = _sweep(base, axis, values, grid_points, (1,), config)["upper_r1"]
    direction = _AXIS_DIRECTION[axis]
    sign = 1.0 if direction == "non-decreasing" else -1.0
    monotone = bool(np.all(sign * np.diff(c1) >= -slack))
    return SweepVerdict(axis=axis, values=tuple(values), c1=tuple(c1),
                        direction=direction, monotone=monotone)
