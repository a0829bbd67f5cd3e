"""Problem instances for Poisson channels with a linear ISI filter, and their
conversion into finite discrete channels with per-input costs.

The physical model: the transmitter releases molecules with intensity x_i in
slot i, a molecule released in slot i arrives in slot i+j with probability
taps[j], and the receiver count in slot i is Poisson distributed with
intensity lambda0 + (x * taps)_i.  The bounds read the block channel's
factors (``_block_factors``), and ``build_block_channel`` multiplies them out.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceededError

DEFAULT_TAIL_EPS = 1e-10
DEFAULT_GRID_POINTS = 9
DEFAULT_ENTRY_BUDGET = 200_000_000

_ROW_SUM_TOL = 1e-9


def _check_bytes(nbytes: int, needs: str, hint: str):
    """Refuse arrays alive at once, described by needs, whose nbytes exceed
    DEFAULT_ENTRY_BUDGET float64 entries; called before they are allocated.
    hint, the end of the message, names the setting to change."""
    budget = DEFAULT_ENTRY_BUDGET * np.dtype(np.float64).itemsize
    if nbytes > budget:
        raise BudgetExceededError(
            f"{needs}, {nbytes} bytes, above the budget of {budget} bytes; {hint}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ImpulseResponse:
    """Nonnegative hitting-probability taps (p_0, ..., p_k) of the ISI filter.

    Taps must be nonnegative and sum to at most 1 (mass may be lost to the
    environment).  ``normalize`` rescales the taps to sum to exactly 1.
    """

    taps: tuple

    def __post_init__(self):
        taps = tuple(float(t) for t in self.taps)
        if len(taps) == 0:
            raise ValueError("impulse response needs at least one tap")
        if any(not np.isfinite(t) or t < 0 for t in taps):
            raise ValueError(f"taps must be finite and nonnegative, got {taps}")
        if sum(taps) > 1.0 + 1e-12:
            raise ValueError(f"tap mass {sum(taps)} exceeds 1")
        object.__setattr__(self, "taps", taps)

    @property
    def order(self) -> int:
        """Memory order k (number of taps minus one)."""
        return len(self.taps) - 1

    @property
    def mass(self) -> float:
        return float(sum(self.taps))

    def normalize(self) -> "ImpulseResponse":
        m = self.mass
        if m <= 0:
            raise ValueError("cannot normalize an all-zero impulse response")
        return ImpulseResponse(tuple(t / m for t in self.taps))

    def trimmed(self) -> "ImpulseResponse":
        """Drop trailing zero taps; semantics are unchanged."""
        taps = list(self.taps)
        while len(taps) > 1 and taps[-1] == 0.0:
            taps.pop()
        return ImpulseResponse(tuple(taps))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.taps, dtype=np.float64)


@dataclass(frozen=True)
class ChannelSpec:
    """A full point-to-point problem instance.

    lambda0 is the background intensity per slot, amax the peak release
    intensity, alpha the average release intensity budget.
    """

    impulse: ImpulseResponse
    lambda0: float
    amax: float
    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.lambda0) and self.lambda0 >= 0):
            raise ValueError(f"lambda0 must be finite and >= 0, got {self.lambda0}")
        if not (np.isfinite(self.amax) and self.amax > 0):
            raise ValueError(f"amax must be finite and > 0, got {self.amax}")
        if not (0 <= self.alpha <= self.amax):
            raise ValueError(f"alpha must lie in [0, amax], got {self.alpha}")


@dataclass(frozen=True)
class InputGrid:
    """Strictly increasing release intensities, spanning 0 to the peak."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 1:
            raise ValueError("grid needs at least one point")
        if any(not np.isfinite(p) or p < 0 for p in pts):
            raise ValueError("grid points must be finite and nonnegative")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, amax: float, m: int) -> "InputGrid":
        """m equally spaced points on [0, amax], endpoints included."""
        if m < 2:
            raise ValueError("uniform grid needs m >= 2")
        return cls(tuple(np.linspace(0.0, amax, m)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.float64)


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic transition matrix (one row per input, outputs are its
    column indices), a per-input cost vector and one label per input.

    The public input of ba_capacity, capacity_cost_curve, the sym-KL
    bounds, mutual_information and the plug-in estimator; the bounds read
    the block channel's factors (_block_factors) instead.  Immutable: the
    arrays are frozen so instances can be shared across threads.
    """

    transition: np.ndarray
    cost: np.ndarray
    input_labels: tuple

    def __post_init__(self):
        w = np.asarray(self.transition, dtype=np.float64)
        c = np.asarray(self.cost, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("transition must be a 2-D matrix")
        if np.any(w < 0):
            raise ValueError("transition entries must be nonnegative")
        rowsums = w.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > _ROW_SUM_TOL):
            worst = float(np.max(np.abs(rowsums - 1.0)))
            raise ValueError(f"rows must sum to 1 within {_ROW_SUM_TOL}, worst error {worst:.3e}")
        if c.shape != (w.shape[0],):
            raise ValueError("cost vector length must equal the number of inputs")
        if len(self.input_labels) != w.shape[0]:
            raise ValueError("input label count must equal the number of inputs")
        object.__setattr__(self, "transition", _freeze(w))
        object.__setattr__(self, "cost", _freeze(c))
        object.__setattr__(self, "input_labels", tuple(self.input_labels))

    @property
    def n_inputs(self) -> int:
        return self.transition.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class BlockChannelSpec:
    """Parameters of the finite block channel: k+r committed inputs per use,
    the last r output slots observed."""

    base: ChannelSpec
    grid: InputGrid
    r: int
    tail_eps: float = DEFAULT_TAIL_EPS

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if not (0 < self.tail_eps <= 1e-3):
            raise ValueError("tail_eps must lie in (0, 1e-3]")


@dataclass(frozen=True)
class NetworkSpec:
    """Single-hop network: s transmitters, d receivers, per-pair tap arrays.

    impulses[l, j, u] is the probability that a molecule released by
    transmitter l arrives at receiver j with a delay of u slots.
    """

    impulses: np.ndarray  # shape (s, d, k+1)
    lambda0: float
    amax: np.ndarray  # per transmitter
    alpha: np.ndarray  # per transmitter

    def __post_init__(self):
        imp = np.asarray(self.impulses, dtype=np.float64)
        if imp.ndim != 3:
            raise ValueError("impulses must have shape (s, d, k+1)")
        if np.any(imp < 0):
            raise ValueError("taps must be nonnegative")
        if np.any(imp.sum(axis=2) > 1.0 + 1e-12):
            raise ValueError("tap mass per (transmitter, receiver) pair must be <= 1")
        amax = np.asarray(self.amax, dtype=np.float64)
        alpha = np.asarray(self.alpha, dtype=np.float64)
        s = imp.shape[0]
        if amax.shape != (s,) or alpha.shape != (s,):
            raise ValueError("amax and alpha must have one entry per transmitter")
        if np.any(amax <= 0) or np.any(alpha < 0) or np.any(alpha > amax):
            raise ValueError("need 0 <= alpha <= amax and amax > 0 per transmitter")
        if self.lambda0 < 0 or not np.isfinite(self.lambda0):
            raise ValueError("lambda0 must be finite and >= 0")
        object.__setattr__(self, "impulses", _freeze(imp))
        object.__setattr__(self, "amax", _freeze(amax))
        object.__setattr__(self, "alpha", _freeze(alpha))

    @property
    def n_tx(self) -> int:
        return self.impulses.shape[0]

    @property
    def n_rx(self) -> int:
        return self.impulses.shape[1]

    @property
    def order(self) -> int:
        return self.impulses.shape[2] - 1


# Relative weight of the Poisson tail left out above the start of
# truncation_point's sum: below one rounding of tail_eps.
_TAIL_SLACK = 2.0 ** -55


def truncation_point(lam: float, tail_eps: float) -> int:
    """Smallest ymax with Poisson(lam) tail mass P(Y > ymax) < tail_eps.

    The tail is summed from the top, so every term adds to it and there is
    no cancellation.  The sum starts where the Chernoff bound
    P(Y >= y) <= exp(-(y log(y/lam) - y + lam)) drops below
    tail_eps * _TAIL_SLACK (Newton steps from above, starting at a point
    Bernstein's inequality puts above that root), with one lgamma for the
    pmf there, and walks down by pmf(y - 1) = pmf(y) * y / lam.  The walk is
    O(sqrt(lam)) steps long.  Terms are kept in units of tail_eps, so none
    underflows.
    """
    if lam == 0:
        return 0
    L = -math.log(tail_eps * _TAIL_SLACK)
    y = lam + math.sqrt(2.0 * L * lam) + L
    for _ in range(3):
        y -= (y * math.log(y / lam) - y + lam - L) / math.log(y / lam)
    y = math.ceil(y)
    p = math.exp(y * math.log(lam) - lam - math.lgamma(y + 1.0) - math.log(tail_eps))
    tail = 0.0  # P(Y >= y + 1) / tail_eps
    while y > 0:
        tail += p
        if tail >= 1.0:  # P(Y > y - 1) >= tail_eps, and P(Y > y) < tail_eps
            return y
        p *= y / lam
        y -= 1
    return 0


def _pmf_rows(lam: np.ndarray, ymax: int) -> np.ndarray:
    """One row per intensity in lam: Poisson(lam) restricted to {0..ymax}
    and renormalized.  All rows share one log-factorial table."""
    lam = np.asarray(lam, dtype=np.float64)
    k = np.arange(ymax + 1)
    log_factorial = np.array([math.lgamma(j + 1.0) for j in range(ymax + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = k * np.log(lam)[:, None] - lam[:, None] - log_factorial
    p = np.exp(logp)
    p[lam == 0] = k == 0  # 0 * log 0 is nan; Poisson(0) is the point mass at 0
    return p / p.sum(axis=1, keepdims=True)


def _pmf_on_support(lam: float, ymax: int) -> np.ndarray:
    """Poisson(lam) restricted to {0..ymax} and renormalized."""
    return _pmf_rows([lam], ymax)[0]


def poisson_pmf(lam: float, tail_eps: float) -> np.ndarray:
    """Truncated, renormalized Poisson(lam) pmf over {0, ..., ymax}.

    ymax is the smallest integer whose tail mass falls below tail_eps, so the
    mass removed before renormalization is < tail_eps.  lam = 0 degenerates to
    the single-entry vector (1.0).
    """
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if not (0 < tail_eps < 1):
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    if lam == 0:
        return np.array([1.0])
    return _pmf_on_support(lam, truncation_point(lam, tail_eps))


def convolve(inputs, impulse: ImpulseResponse) -> np.ndarray:
    """First n terms of the truncated convolution x * taps.

    s_i = sum_{j=0}^{min(i-1,k)} taps[j] * x_{i-j} in 1-indexed terms; inputs
    before the first slot are treated as zero.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("inputs must be a 1-D sequence")
    if np.any(x < 0):
        raise ValueError("inputs must be nonnegative")
    if x.size == 0:
        return np.zeros(0)
    return np.convolve(x, impulse.as_array())[: x.size]


def _check_grid(spec: ChannelSpec, grid: InputGrid):
    pts = grid.as_array()
    if abs(pts[-1] - spec.amax) > 1e-12 * max(1.0, spec.amax):
        raise ValueError(f"grid must end at amax={spec.amax}, got {pts[-1]}")


def build_memoryless_channel(spec: ChannelSpec, grid: InputGrid,
                             tail_eps: float = DEFAULT_TAIL_EPS) -> DiscreteChannel:
    """Discretize a memoryless instance (single-tap impulse).

    The k=0, r=1 block channel of the trimmed impulse: row for grid point x
    is the truncated Poisson(lambda0 + p0*x) pmf on the widest support, and
    the cost of input x is x itself.  Inputs are labelled by the grid points.
    """
    imp = spec.impulse.trimmed()
    if imp.order != 0:
        raise ValueError("memoryless construction requires a single-tap impulse")
    block = build_block_channel(
        BlockChannelSpec(replace(spec, impulse=imp), grid, r=1, tail_eps=tail_eps))
    return replace(block, input_labels=grid.points)


def _slot_intensities(tuples: np.ndarray, taps: np.ndarray, lambda0: float, r: int) -> np.ndarray:
    """Intensity of each observed slot for every input tuple.

    tuples has shape (T, k+r); column s+k-j holds x_{i-j} for observed slot
    s (0-based), so the window dot with reversed taps gives the filter output.
    """
    k = taps.size - 1
    lam = np.empty((tuples.shape[0], r))
    w = taps[::-1]
    for s in range(r):
        lam[:, s] = tuples[:, s:s + k + 1] @ w
    return lambda0 + lam


def _block_ymax(spec: ChannelSpec, m: int, r: int, tail_eps: float) -> int:
    """The block channel's largest count ymax, after refusing a dense matrix
    of m^(k+r) x (ymax+1)^r float64 entries over the byte budget.  Needs
    only m, so it can run before the grid is built."""
    k = spec.impulse.order
    ymax = truncation_point(spec.lambda0 + spec.amax * spec.impulse.as_array().sum(), tail_eps)
    n_inputs, n_outputs = m ** (k + r), (ymax + 1) ** r
    _check_bytes(n_inputs * n_outputs * np.dtype(np.float64).itemsize,
                 f"the block channel needs {n_inputs} x {n_outputs} float64 entries "
                 f"(m={m}, k={k}, r={r}, ymax={ymax})",
                 "lower --grid or --r")
    return ymax


def _checked_grid(spec: ChannelSpec, m: int, tail_eps: float) -> InputGrid:
    """InputGrid.uniform(spec.amax, m), after the r = 1 block channel's byte
    check: a grid too fine for any block is refused before its m points are
    made."""
    _block_ymax(spec, m, 1, tail_eps)
    return InputGrid.uniform(spec.amax, m)


def _block_factors(bspec: BlockChannelSpec):
    """The block channel's factors: (table, index, tuples).

    table holds one truncated pmf per distinct slot intensity, on the shared
    support 0..ymax; index[x, s] is the table row of input x's observed slot
    s; tuples[x] is input x, a grid^(k+r) tuple.  Row x of the block channel
    is the np.kron of table[index[x, s]] over s.  A dense matrix over the
    byte budget is refused before anything is built.
    """
    spec = bspec.base
    _check_grid(spec, bspec.grid)
    # Trailing zero taps are honored: they enlarge the committed window and
    # its cost structure, which callers use to compare impulse responses at
    # a common memory order.
    pts = bspec.grid.as_array()
    ymax = _block_ymax(spec, pts.size, bspec.r, bspec.tail_eps)
    tuples = np.array(list(itertools.product(pts, repeat=spec.impulse.order + bspec.r)))
    lam = _slot_intensities(tuples, spec.impulse.as_array(), spec.lambda0, bspec.r)
    values, index = np.unique(lam, return_inverse=True)
    return _pmf_rows(values, ymax), index.reshape(lam.shape), tuples


def _kron_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row x is the np.kron of table[index[x, s]] over the columns s."""
    rows = table[index[:, 0]]
    for s in range(1, index.shape[1]):
        rows = (rows[:, :, None] * table[index[:, s]][:, None, :]).reshape(index.shape[0], -1)
    return rows


def build_block_channel(bspec: BlockChannelSpec) -> DiscreteChannel:
    """Materialize the block channel: inputs are grid^(k+r) tuples, labelled
    by the tuples; outputs are r-tuples of counts, each in 0..ymax.

    Column sum_s y_s (ymax+1)^(r-s) holds the counts (y_1, ..., y_r):
    row-major over the r observed slots, the first slowest, so each row is
    the np.kron of its slot pmfs (_block_factors).  The cost of an input
    tuple is its per-slot average intensity, so a single alpha serves every
    r.  A matrix over the byte budget is refused before it is built.
    """
    table, index, tuples = _block_factors(bspec)
    return DiscreteChannel(
        transition=_kron_rows(table, index),
        cost=tuples.mean(axis=1),
        input_labels=tuple(map(tuple, tuples)),
    )


def scale_invariance_transform(spec: ChannelSpec, beta: float) -> ChannelSpec:
    """Equivalent instance (beta*A, beta*alpha, taps/beta, lambda0).

    The filter output distribution is unchanged, so every capacity quantity
    agrees between the two instances; used by tests asserting that.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    taps = tuple(t / beta for t in spec.impulse.taps)
    if sum(taps) > 1.0 + 1e-12:
        raise ValueError(f"scaled taps sum to {sum(taps)} > 1; beta too small")
    return ChannelSpec(
        impulse=ImpulseResponse(taps),
        lambda0=spec.lambda0,
        amax=beta * spec.amax,
        alpha=beta * spec.alpha,
    )


_INSTANCE_FIELDS = {"impulse", "lambda0", "amax", "alpha", "grid_points", "tail_eps"}
_REQUIRED_FIELDS = {"impulse", "lambda0", "amax", "alpha"}


def _number(value, name: str) -> float:
    """A JSON number as a float.  null, booleans, strings, lists and other
    non-numbers are a ValueError: float() would take true as 1.0 and "40"
    as 40.0, and solve an instance the file did not state.  So is an
    integer too large for a float, which float() rejects with OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"{name} is too large for a float") from None


def parse_instance(text: str):
    """Parse a JSON problem file into (ChannelSpec, grid_points, tail_eps).

    Schema: {"impulse": [..], "lambda0": .., "amax": .., "alpha": ..,
    "grid_points": m, "tail_eps": ..}; unknown fields are rejected,
    grid_points and tail_eps fall back to the package defaults.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"instance file is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValueError("instance file must contain a JSON object")
    unknown = set(raw) - _INSTANCE_FIELDS
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(raw)
    if missing:
        raise ValueError(f"missing instance fields: {sorted(missing)}")
    if not isinstance(raw["impulse"], (list, tuple)):
        raise ValueError("impulse must be a list of taps")
    spec = ChannelSpec(
        impulse=ImpulseResponse(tuple(_number(t, "impulse tap") for t in raw["impulse"])),
        lambda0=_number(raw["lambda0"], "lambda0"),
        amax=_number(raw["amax"], "amax"),
        alpha=_number(raw["alpha"], "alpha"),
    )
    grid_points = _number(raw.get("grid_points", DEFAULT_GRID_POINTS), "grid_points")
    if not (grid_points.is_integer() and grid_points >= 2):
        raise ValueError(f"grid_points must be an integer >= 2, got {grid_points}")
    tail_eps = _number(raw.get("tail_eps", DEFAULT_TAIL_EPS), "tail_eps")
    if not (0 < tail_eps <= 1e-3):
        raise ValueError("tail_eps must lie in (0, 1e-3]")
    return spec, int(grid_points), tail_eps


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
