"""Monte Carlo simulation of the filtered-Poisson channel and the
multi-terminal network law, plus a plug-in mutual-information estimator.

Reproducibility contract: all randomness flows through Philox (a counter
based generator) keyed by (seed, stream), and Poisson variates are drawn by
a fixed, documented algorithm: inversion by sequential search below
intensity 30, Atkinson's logistic-envelope accept-reject above.  All trials
of a waveform are drawn in one `poisson_draw` call (one per receiver, rx 0
first), and each trial's substream is used exactly as a call of its own
would use it: the draws per distinct intensity in ascending order, slots in
index order within each.  Trial number and a purpose tag select the stream,
so for a given seed traces are independent of execution order and of how
trials are grouped, and bit-identical on one platform (CPU instruction set,
Python, NumPy and SciPy builds).  They are not assured across platforms:
`math.exp`, NumPy's SIMD `log`/`logaddexp` and SciPy's `gammaln` may round
differently in the last bit elsewhere, which can move a draw that sits on a
boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, DiscreteChannel, NetworkSpec, _check_bytes, _freeze, convolve
from .solver import _check_pmf, _log0

_INVERSION_CUTOFF = 30.0
_ROUND = 16  # fewest proposals in an Atkinson round
# Atkinson groups of at most _SMALL slots have their first rounds evaluated
# ahead, up to _BATCH groups at once.  The sampler accepts about _ACCEPT of
# its proposals at intensity 30, and more above, so a first round of 16 fills
# a group of 8 with probability above 0.93, one of 12 below 0.31.  A trial's
# pass is redone from the first group it does not fill, so _BATCH bounds the
# work it wastes.
_SMALL = 8
_BATCH = 64
_ACCEPT = 0.65
_TABLE_ENTRIES = 1 << 15  # cap on the Atkinson proposals one pass holds

# Stream tags keep the trial substreams of different operations disjoint.
_STREAM_P2P = 1
_STREAM_NETWORK = 2
_STREAM_PLUGIN = 3


@dataclass(frozen=True)
class SimConfig:
    seed: int
    n_slots: int
    n_trials: int

    def __post_init__(self):
        if self.n_slots < 1 or self.n_trials < 1:
            raise ValueError("n_slots and n_trials must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Trace:
    """Simulated realizations: inputs[tx, slot] intensities and
    outputs[trial, rx, slot] counts."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.outputs)
        if x.ndim != 2 or y.ndim != 3:
            raise ValueError("inputs must be (tx, slot), outputs (trial, rx, slot)")
        if y.shape[2] != x.shape[1]:
            raise ValueError("output slot count must match input slot count")
        if np.any(y < 0) or not np.issubdtype(y.dtype, np.integer):
            raise ValueError("outputs must be nonnegative integer counts")
        yy = np.ascontiguousarray(y)
        yy.flags.writeable = False
        object.__setattr__(self, "inputs", _freeze(x))
        object.__setattr__(self, "outputs", yy)

    def input_rows(self):
        """CSV rows (trial, slot, tx_id, x); inputs repeat across trials."""
        n_trials = self.outputs.shape[0]
        for trial in range(n_trials):
            for tx in range(self.inputs.shape[0]):
                for slot in range(self.inputs.shape[1]):
                    yield trial, slot, tx, self.inputs[tx, slot]

    def output_rows(self):
        """CSV rows (trial, slot, rx_id, y)."""
        n_trials, n_rx, n_slots = self.outputs.shape
        for trial in range(n_trials):
            for rx in range(n_rx):
                for slot in range(n_slots):
                    yield trial, slot, rx, int(self.outputs[trial, rx, slot])


def substream(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed directly by (seed, stream)."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Uniforms:
    """The generator's uniforms, readable ahead: `peek` draws the next n
    without using them, `take` uses them."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self.ahead = np.empty(0)

    def peek(self, n: int) -> np.ndarray:
        if self.ahead.size < n:
            self.ahead = np.concatenate([self.ahead, self.gen.random(n - self.ahead.size)])
        return self.ahead[:n]

    def take(self, n: int) -> np.ndarray:
        if not self.ahead.size:
            return self.gen.random(n)
        out = self.peek(n)
        self.ahead = self.ahead[n:]
        return out


def _inversion(lam: float, u: np.ndarray) -> np.ndarray:
    """Poisson(lam) counts by inversion, one uniform per variate, for one
    intensity 0 < lam < 30; every element of u (all trials' slots) is
    found in the same cdf.  The count is the smallest k <= kmax with
    u <= F(k), F summing p_k = p_{k-1} * lam / k from p_0 = exp(-lam) in
    order, so it matches a sequential search."""
    # Search depth is bounded: the cdf reaches 1 - 1e-15 well before this cap.
    kmax = int(lam + 40.0 * math.sqrt(lam + 1.0) + 50)
    cdf = np.empty(kmax + 1)
    cdf[0] = math.exp(-lam)
    np.divide(lam, np.arange(1, kmax + 1), out=cdf[1:])
    np.multiply.accumulate(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    return np.minimum(np.searchsorted(cdf, u, side="left"), kmax)


def _atkinson_constants(lam: np.ndarray) -> tuple:
    """Arrays (alpha, beta, k, log lam) of Atkinson's logistic envelope.
    Logarithms are taken with `math`: NumPy's vectorized log can differ
    from it in the last bit, which would move draws."""
    beta = math.pi / np.sqrt(3.0 * lam)
    log_c = [math.log(c) for c in (0.767 - 3.36 / lam).tolist()]
    log_beta = [math.log(x) for x in beta.tolist()]
    log_lam = [math.log(x) for x in lam.tolist()]
    return beta * lam, beta, np.subtract(log_c, lam) - log_beta, np.array(log_lam)


def _atkinson_proposals(u, v, alpha, beta, k, log_lam):
    """Proposed counts for uniform pairs (u, v) in [0, 1) and whether each is
    accepted; the constants are arrays broadcasting against u.
    A u of 0 proposes -inf, which is never accepted."""
    # Imported on this path only, to keep SciPy off `import ltipc`.
    from scipy.special import gammaln
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (alpha - np.log((1.0 - u) / u)) / beta
        n = np.floor(x + 0.5)
        y = alpha - beta * x
        lhs = y + np.log(v) - 2.0 * np.logaddexp(0.0, y)
        rhs = k + n * log_lam - gammaln(n + 1.0)
    return n, (n >= 0) & (lhs <= rhs)


class _Atkinson:
    """Atkinson's accept-reject for the groups of sorted slots that share one
    intensity at or above the cutoff, drawn in ascending order.  A trial
    draws a group in rounds of max(still needed, _ROUND) proposals, the u of
    a round, then its v, keeping accepted counts in order.

    Groups of size <= _SMALL have their first rounds evaluated ahead, for a
    run of up to _BATCH such groups at once, while each fills its group:
    every group still to be drawn uses at least one round, 2 * _ROUND
    uniforms, and no more than that is read ahead per group, so all that a
    trial reads ahead gets used.  Its generator therefore ends where drawing
    each group in turn leaves it.

    The accept test of those first rounds is evaluated on their heads, then
    on the rest of a round only where its head leaves the group open:
    proposals after the last one a group keeps never change its counts.  A
    head is as many proposals as the pass's smallest group needs at the
    lowest acceptance rate, _ACCEPT, plus one; one width for the pass keeps
    the heads one block.
    """

    def __init__(self, start: np.ndarray, size: np.ndarray, lam: np.ndarray):
        self.size = size
        self.start = np.append(start, start[-1] + size[-1])  # and the end
        self.consts = np.array(_atkinson_constants(lam))  # rows alpha, beta, k, log lam
        # run[g]: small groups from g to the next large one, at most _BATCH;
        # 0 at a large group and at the end.
        g = np.arange(size.size + 1)
        nxt = np.minimum.accumulate(np.where(np.append(size <= _SMALL, False), size.size + 1,
                                             g)[::-1])[::-1]
        self.run = np.minimum(nxt - g, _BATCH)
        # Most proposals one trial holds in one pass.
        self.width = max(_ROUND * max(1, int(self.run.max())), int(size.max()))

    def draw(self, streams: list, counts: np.ndarray) -> None:
        """Draw every group for each trial: streams[t] supplies trial t's
        uniforms, its counts go to counts[t] in sorted slot order."""
        pos = np.zeros(len(streams), dtype=np.int64)  # the group each trial is at
        short = np.zeros(len(streams), dtype=bool)    # its first round falls short
        while True:
            at_small = ((self.run[pos] > 0) & ~short).nonzero()[0]
            if at_small.size:
                self._first_rounds(streams, counts, at_small, pos, short)
            if (pos == self.size.size).all():
                return
            self._rounds(streams, counts, pos, short)

    def _first_rounds(self, streams, counts, at, pos, short) -> None:
        """One pass over the first rounds of each trial's run of small groups,
        from its current group; a trial stops at its first group whose first
        round falls short, and is marked to draw it in rounds."""
        m, p = self.run[pos[at]], pos[at]
        uv = np.concatenate([streams[t].peek(2 * _ROUND * k)
                             for t, k in zip(at.tolist(), m.tolist())]).reshape(-1, 2, _ROUND)
        first = m.cumsum() - m
        grp = (p - first).repeat(m) + np.arange(uv.shape[0])  # trial by trial, ascending
        size = self.size[grp]
        h = math.ceil(int(size.min()) / _ACCEPT) + 1  # the head of every round
        n = np.empty((grp.size, _ROUND))
        accept = np.zeros((grp.size, _ROUND), dtype=bool)
        n[:, :h], accept[:, :h] = _atkinson_proposals(
            np.ascontiguousarray(uv[:, 0, :h]), np.ascontiguousarray(uv[:, 1, :h]),
            *self.consts[:, grp, None])
        rest = (np.count_nonzero(accept[:, :h], axis=1) < size).nonzero()[0]
        n[rest, h:], accept[rest, h:] = _atkinson_proposals(
            uv[rest, 0, h:], uv[rest, 1, h:], *self.consts[:, grp[rest], None])
        rank = accept.cumsum(axis=1)
        stop = np.minimum(np.minimum.reduceat(np.where(rank[:, -1] < size, grp, self.size.size),
                                              first), p + m)
        keep = accept & (rank <= size[:, None])
        # A trial's filled groups are consecutive, and so are their slots.
        for t, a, g0, g1 in zip(at.tolist(), first.tolist(), p.tolist(), stop.tolist()):
            streams[t].take(2 * _ROUND * (g1 - g0))
            counts[t, self.start[g0]: self.start[g1]] = n[a: a + g1 - g0][keep[a: a + g1 - g0]]
        pos[at] = stop
        short[at] = stop < p + m

    def _rounds(self, streams, counts, pos, short) -> None:
        """Rounds in lockstep for every trial at a large group or at a small
        one marked short, until each has reached a small group or the end."""
        t = ((pos < self.size.size) & (short | (self.run[pos] == 0))).nonzero()[0]
        short[t] = False
        g, d = pos[t], np.zeros(t.size, dtype=np.int64)  # each row's group, counts drawn
        while t.size:
            need = self.size[g] - d
            k = np.maximum(need, _ROUND)
            # Zero-padded rows: a u of 0 is never accepted.
            uv = np.zeros((2, t.size, int(k.max())))
            for r, (tr, kr) in enumerate(zip(t.tolist(), k.tolist())):
                drawn = streams[tr].take(2 * kr)
                uv[0, r, :kr] = drawn[:kr]
                uv[1, r, :kr] = drawn[kr:]
            n, accept = _atkinson_proposals(uv[0], uv[1], *self.consts[:, g, None])
            rank = accept.cumsum(axis=1)
            r, c = (accept & (rank <= need[:, None])).nonzero()
            counts[t[r], self.start[g[r]] + d[r] + rank[r, c] - 1] = n[r, c]
            d += np.minimum(rank[:, -1], need)
            done = d == self.size[g]
            g, d = g + done, np.where(done, 0, d)
            leave = done & ((g == self.size.size) | (self.run[g] > 0))  # the end, or a small group
            pos[t[leave]] = g[leave]
            t, g, d = t[~leave], g[~leave], d[~leave]


def poisson_draw(gen, lam, size: int | None = None) -> np.ndarray:
    """Poisson variates with per-slot intensities lam, or size iid
    Poisson(lam) variates when size is given.

    gen is one generator, or a sequence of T generators, one per trial;
    then the result has shape (T,) + lam.shape and row t equals
    poisson_draw(gen[t], lam), with gen[t] left where that call leaves it.
    A single generator is the T = 1 case of the same draw.

    Each trial takes the draws for the slots of each distinct intensity in
    turn, intensities in ascending order and slots in index order within
    each: inversion by sequential search below intensity 30 (one uniform
    per variate, each intensity's cdf built once for all trials), Atkinson's
    logistic-envelope accept-reject at or above it.  The output, and the
    state each generator is left in, depend only on the intensities and the
    state it is given.
    """
    lam = np.asarray(lam, dtype=np.float64)
    bad = ~(np.isfinite(lam) & (lam >= 0))
    if bad.any():
        raise ValueError(f"intensity must be finite and >= 0, got {lam[bad].flat[0]}")
    if size is not None:
        lam = np.full(size, lam)
    single = isinstance(gen, np.random.Generator)
    streams = [_Uniforms(g) for g in ([gen] if single else gen)]
    # The plan, shared by every trial: sort slots by intensity, stably, so
    # each distinct intensity's slots form one run in index order: zeros,
    # then inversion, then Atkinson.
    order = np.argsort(lam, axis=None, kind="stable")
    lam_sorted = lam.ravel()[order]
    starts = np.flatnonzero(np.diff(lam_sorted, prepend=-1.0) != 0)
    ends = np.append(starts[1:], lam_sorted.size)
    values = lam_sorted[starts]
    counts = np.zeros((len(streams), lam_sorted.size), dtype=np.int64)
    low = (values > 0) & (values < _INVERSION_CUTOFF)
    if low.any():
        # Each trial's uniforms for all inversion slots, then one cdf per
        # intensity, searched for every trial's slots at once.
        a, b = starts[low][0], ends[low][-1]
        u = np.empty((len(streams), b - a))
        for t, stream in enumerate(streams):
            u[t] = stream.take(b - a)
        for lo, hi, x in zip(starts[low].tolist(), ends[low].tolist(), values[low].tolist()):
            counts[:, lo:hi] = _inversion(x, u[:, lo - a: hi - a])
    high = values >= _INVERSION_CUTOFF
    if high.any():
        atkinson = _Atkinson(starts[high], (ends - starts)[high], values[high])
        # Trials go in chunks so that one pass holds at most _TABLE_ENTRIES
        # proposals.
        chunk = max(1, _TABLE_ENTRIES // atkinson.width)
        for lo in range(0, len(streams), chunk):
            atkinson.draw(streams[lo: lo + chunk], counts[lo: lo + chunk])
    out = np.empty_like(counts)
    out[:, order] = counts
    return out.reshape(lam.shape if single else (len(streams),) + lam.shape)


def _draw_counts(lam: np.ndarray, sim: SimConfig, stream: int) -> np.ndarray:
    """Counts of shape trials x receivers x slots for the intensity rows lam
    (receivers x slots); with one receiver, a view of its draw.  Trial t
    draws from the (seed, (stream << 32) + t) substream, one `poisson_draw`
    call per receiver, rx 0 first."""
    (R, S), T = lam.shape, sim.n_trials
    _check_bytes(T * R * S * np.dtype(np.int64).itemsize,
                 f"the simulated counts need trials x receivers x slots = {T} x {R} x {S} = "
                 f"{T * R * S} int64 entries", "simulate fewer trials or slots (--values)")
    gens = [substream(sim.seed, (stream << 32) + trial) for trial in range(T)]
    if R == 1:
        return poisson_draw(gens, lam[0])[:, None, :]
    outputs = np.empty((T, R, S), dtype=np.int64)
    for j in range(R):
        outputs[:, j] = poisson_draw(gens, lam[j])
    return outputs


def simulate_p2p(spec: ChannelSpec, inputs, sim: SimConfig) -> Trace:
    """Simulate the point-to-point channel for a fixed input waveform.

    Given the inputs, slot counts are independent Poisson with intensity
    lambda0 + (x * taps)_i.  Each trial uses its own (seed, trial) substream,
    and all trials are drawn in one `poisson_draw` call.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 1 or x.size != sim.n_slots:
        raise ValueError("inputs must be a 1-D sequence of length n_slots")
    if np.any(x < 0) or np.any(x > spec.amax + 1e-12):
        raise ValueError("inputs must lie in [0, amax]")
    lam = spec.lambda0 + convolve(x, spec.impulse)
    return Trace(inputs=x[None, :], outputs=_draw_counts(lam[None, :], sim, _STREAM_P2P))


def simulate_network(net: NetworkSpec, inputs, sim: SimConfig) -> Trace:
    """Simulate the single-hop network law: receiver j sees Poisson counts
    with intensity lambda0 plus the superposition of every transmitter's
    filtered contribution; receivers are independent given the inputs."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape != (net.n_tx, sim.n_slots):
        raise ValueError(f"inputs must have shape ({net.n_tx}, {sim.n_slots})")
    if np.any(x < 0) or np.any(x > net.amax[:, None] + 1e-12):
        raise ValueError("inputs must lie in [0, amax] per transmitter")
    lam = np.full((net.n_rx, sim.n_slots), float(net.lambda0))
    for j in range(net.n_rx):
        for l in range(net.n_tx):
            taps = net.impulses[l, j]
            lam[j] += np.convolve(x[l], taps)[: sim.n_slots]
    return Trace(inputs=x, outputs=_draw_counts(lam, sim, _STREAM_NETWORK))


@dataclass(frozen=True)
class PluginMiEstimate:
    """Plug-in estimate with jackknife standard error.

    The plug-in estimator is positively biased by about
    (|X|-1)(|Y|-1)/(2n) nats; `bias` records that figure, it is not
    subtracted from `value`.
    """

    value: float
    stderr: float
    bias: float
    n_samples: int


def _plugin_mi_jackknife(counts: np.ndarray):
    """Mutual information of a joint histogram of n samples, in nats, and
    its jackknife standard error over the samples.

    With f(c) = c log c, n·I = sum f(cell) - sum f(row) - sum f(column)
    + f(n).  Leaving out one sample of cell (i, j) changes four of those
    terms, so the leave-one-out values are one per occupied cell, weighted
    by its count.
    """
    def f(c):
        return c * _log0(c)

    n = float(counts.sum())
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    f_cells, f_rows, f_cols = f(counts), f(rows), f(cols)
    total = f_cells.sum() - f_rows.sum() - f_cols.sum()
    i, j = np.nonzero(counts)
    weights = counts[i, j]
    loo = (total - f_cells[i, j] + f(weights - 1.0) + f_rows[i] - f(rows[i] - 1.0)
           + f_cols[j] - f(cols[j] - 1.0) + f(n - 1.0)) / (n - 1.0)
    loo_mean = float(weights @ loo) / n
    var_jack = (n - 1.0) / n * float(weights @ (loo - loo_mean) ** 2)
    return float(total + f(n)) / n, math.sqrt(max(var_jack, 0.0))


def plugin_mi_estimate(channel: DiscreteChannel, input_dist, n_samples: int,
                       seed: int) -> PluginMiEstimate:
    """Sample (x, y) pairs iid from p(x)W(y|x), return the mutual information
    of the empirical joint histogram plus a jackknife standard error.

    The x are drawn by inversion of p's cdf, then the y of each x by
    inversion of W(.|x)'s cdf: the samples are grouped by input with one
    stable sort, and each input's y are searched and counted by bincount
    into its row of the histogram."""
    p = _check_pmf(input_dist, channel.n_inputs)
    min_n = 10 * channel.n_inputs * channel.n_outputs
    if n_samples < min_n:
        raise ValueError(f"need at least {min_n} samples for this alphabet")

    gen = substream(seed, _STREAM_PLUGIN << 32)
    cum_p = np.cumsum(p)
    cum_p[-1] = 1.0
    xs = np.searchsorted(cum_p, gen.random(n_samples), side="right")
    cum_w = np.cumsum(channel.transition, axis=1)
    cum_w[:, -1] = 1.0
    u = gen.random(n_samples)
    # Samples grouped by input, each group's y searched in its input's cdf
    # and counted into its row.  The keys are cast to the narrowest integer
    # type, which NumPy's stable sort radix-sorts up to 16 bits.
    order = np.argsort(xs.astype(np.min_scalar_type(channel.n_inputs)), kind="stable")
    bounds = np.searchsorted(xs[order], np.arange(channel.n_inputs + 1)).tolist()
    counts = np.empty((channel.n_inputs, channel.n_outputs), dtype=np.int64)
    for xv, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        ys = np.searchsorted(cum_w[xv], u[order[lo:hi]], side="right")
        counts[xv] = np.bincount(ys, minlength=channel.n_outputs)

    mi, stderr = _plugin_mi_jackknife(counts)
    bias = (channel.n_inputs - 1) * (channel.n_outputs - 1) / (2.0 * n_samples)
    return PluginMiEstimate(value=mi, stderr=stderr, bias=bias, n_samples=n_samples)
