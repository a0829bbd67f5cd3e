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

How the streams are read leaves the draws unchanged.  A draw reads each
trial's uniforms into its row of a trials x uniforms table, and uses them
from a cursor per trial.  The first read takes what the trial is certain to
use: one uniform per inversion slot and the first round of every Atkinson
group.  The row grows only when the cursor passes its end.  Generators
handed to `poisson_draw` are read no further than that, so each ends where
a call of its own leaves it.  The simulator does not build a generator per
trial: Philox is counter based, so it re-keys one generator to each trial's
substream at the position that trial has reached, and reads ahead.
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
_TABLE_ENTRIES = 1 << 18  # uniforms one table holds, about: 2 MB

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


class _Generators:
    """Trial t's uniforms from gens[t], read in order and only as far as the
    draw is certain to use them, so each generator ends where the draw
    leaves it."""

    ahead = False

    def __init__(self, gens):
        self.gens = list(gens)

    def __len__(self):
        return len(self.gens)

    def read(self, t: int, start: int, out: np.ndarray) -> None:
        self.gens[t].random(out=out)

    def advance(self, lo: int, used: np.ndarray) -> None:
        pass


class _Keyed:
    """Trial t's uniforms: the stream of substream(seed, base + t) from
    position pos[t] on.  Philox is counter based, so one generator serves
    every trial: re-keyed and set to block p // 4 through its state, it
    reads on from position p.  The positions belong to this object, so a
    draw may read ahead of what it uses; `advance` moves them on by what
    it did use."""

    ahead = True

    def __init__(self, seed: int, base: int, n_trials: int):
        self.bits = np.random.Philox(key=np.array([seed, base], dtype=np.uint64))
        self.gen = np.random.Generator(self.bits)
        self.state = self.bits.state  # counter 0, buffer empty
        self.base = base
        self.pos = np.zeros(n_trials, dtype=np.int64)

    def __len__(self):
        return self.pos.size

    def read(self, t: int, start: int, out: np.ndarray) -> None:
        p = int(self.pos[t]) + start
        self.state["state"]["key"][1] = self.base + t
        self.state["state"]["counter"][0] = p >> 2
        self.bits.state = self.state
        if p & 3:
            self.gen.random(p & 3)
        self.gen.random(out=out)

    def advance(self, lo: int, used: np.ndarray) -> None:
        self.pos[lo: lo + used.size] += used


class _Table:
    """The uniforms of trials lo, lo + 1, ...: row r holds trial lo + r's
    stream from where the draw starts it, read up to column filled[r];
    cur[r] is the first column the draw has not used."""

    def __init__(self, reader, lo: int, n: int, width: int):
        self.reader, self.lo = reader, lo
        self.u = np.empty((n, width))
        self.filled = np.zeros(n, dtype=np.int64)
        self.cur = np.zeros(n, dtype=np.int64)

    def fill(self, rows: np.ndarray, need: np.ndarray, to: np.ndarray) -> None:
        """Make columns up to need[i] of row rows[i] readable: a row filled
        short of that reads on to to[i]."""
        short = need > self.filled[rows]
        if not short.any():
            return
        rows, to = rows[short], to[short]
        width = self.u.shape[1]
        if to.max() > width:
            u = np.empty((self.u.shape[0], max(int(to.max()), width + width // 2)))
            u[:, :width] = self.u
            self.u = u
        for r, a, b in zip(rows.tolist(), self.filled[rows].tolist(), to.tolist()):
            self.reader.read(self.lo + r, a, self.u[r, a:b])
        self.filled[rows] = to


def _inversion_cdf(lam: float) -> np.ndarray:
    """The cdf F(0), ..., F(kmax) of Poisson(lam), 0 < lam < 30, that
    inversion searches: F sums p_k = p_{k-1} * lam / k from p_0 = exp(-lam)
    in order, so a search in it matches a sequential search."""
    # Search depth is bounded: the cdf reaches 1 - 1e-15 well before this cap.
    kmax = int(lam + 40.0 * math.sqrt(lam + 1.0) + 50)
    cdf = np.empty(kmax + 1)
    cdf[0] = math.exp(-lam)
    np.divide(lam, np.arange(1, kmax + 1), out=cdf[1:])
    np.multiply.accumulate(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    return cdf


def _inversion(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Counts by inversion, one uniform per variate, every element of u
    (all trials' slots) found in the same cdf: the smallest k <= kmax with
    u <= F(k)."""
    return np.minimum(np.searchsorted(cdf, u, side="left"), cdf.size - 1)


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

    Trial t's uniforms are row t of a _Table, used from its cursor on: each
    step gathers the u and v of every trial it draws from the table at once,
    by per-trial cursors.  Every group still to be drawn takes at least its
    first round, 2 * max(size, _ROUND) uniforms, so a row the cursor runs
    past reads on through the first rounds of all later groups (rest); a
    reader that may read ahead also reads 2 * size more for each large
    group, which covers most trials' later rounds.

    Groups of size <= _SMALL have their first rounds evaluated ahead, for a
    run of up to _BATCH such groups at once, while each fills its group.  A
    trial stops at its first group whose first round falls short and draws
    that group in rounds; the first rounds evaluated past it are redone from
    where those rounds end.

    The accept test of those first rounds is evaluated in stages, each only
    where the round so far leaves its group open: proposals after the last
    one a group keeps never change its counts.  A stage ends at the head of
    a size in the pass, as many proposals as that size needs at the lowest
    acceptance rate, _ACCEPT, plus one; then at the round's end.
    """

    def __init__(self, start: np.ndarray, size: np.ndarray, lam: np.ndarray, ahead: bool):
        self.size = size
        self.start = np.append(start, start[-1] + size[-1])  # and the end
        self.consts = np.array(_atkinson_constants(lam))  # rows alpha, beta, k, log lam
        # run[g]: small groups from g to the next large one, at most _BATCH;
        # 0 at a large group and at the end.
        g = np.arange(size.size + 1)
        nxt = np.minimum.accumulate(np.where(np.append(size <= _SMALL, False), size.size + 1,
                                             g)[::-1])[::-1]
        self.run = np.minimum(nxt - g, _BATCH)
        # rest[g]: what a row reads for groups g on, 0 at the end.  Reading
        # ahead adds a round the size of each large group; width is a row's
        # room for that.
        first = 2 * np.maximum(size, _ROUND)
        more = first + np.where(size > _SMALL, 2 * size, 0)
        self.rest = np.append(np.cumsum((more if ahead else first)[::-1])[::-1], 0)
        self.width = int(more.sum())

    def draw(self, tab: _Table, counts: np.ndarray) -> None:
        """Draw every group for each trial of the table from its cursor on;
        row t's counts go to counts[t] in sorted slot order."""
        pos = np.zeros(len(counts), dtype=np.int64)  # the group each trial is at
        short = np.zeros(len(counts), dtype=bool)    # its first round falls short
        while True:
            at_small = ((self.run[pos] > 0) & ~short).nonzero()[0]
            if at_small.size:
                self._first_rounds(tab, counts, at_small, pos, short)
            if (pos == self.size.size).all():
                return
            self._rounds(tab, counts, pos, short)

    def _first_rounds(self, tab, counts, at, pos, short) -> None:
        """One pass over the first rounds of each trial's run of small groups,
        from its current group; a trial stops at its first group whose first
        round falls short, and is marked to draw it in rounds.  Arrays are
        proposal by group: column i is the i-th group of the pass."""
        m, p, c = self.run[pos[at]], pos[at], tab.cur[at]
        tab.fill(at, c + 2 * _ROUND * m, c + self.rest[p])
        first = m.cumsum() - m
        grp = (p - first).repeat(m) + np.arange(first[-1] + m[-1])  # trial by trial, ascending
        row = at.repeat(m)
        # Where each group's first round starts in the flat table: u, then v.
        u0 = row * tab.u.shape[1] + (c - 2 * _ROUND * p).repeat(m) + 2 * _ROUND * grp
        flat = tab.u.ravel()
        size = self.size[grp]
        n = np.empty((_ROUND, grp.size))
        accept = np.zeros((_ROUND, grp.size), dtype=bool)
        rank = np.empty((_ROUND, grp.size), dtype=np.int8)  # accepted so far
        got = np.zeros(grp.size, dtype=np.int8)
        heads = {min(math.ceil(s / _ACCEPT) + 1, _ROUND)
                 for s in np.flatnonzero(np.bincount(size)).tolist()}
        cuts = sorted(heads | {0, _ROUND})
        for a, b in zip(cuts[:-1], cuts[1:]):
            open_ = np.flatnonzero(got < size) if a else slice(None)  # groups still open
            ix = u0[open_] + np.arange(a, b)[:, None]
            n[a:b, open_], accept[a:b, open_] = _atkinson_proposals(
                flat[ix], flat[ix + _ROUND], *self.consts[:, grp[open_]])
            for j in range(a, b):
                got += accept[j]
                rank[j] = got
        stop = np.minimum(np.minimum.reduceat(np.where(got < size, grp, self.size.size), first),
                          p + m)
        # A trial keeps the counts of its groups before stop.
        keep = accept & (rank <= size) & (grp < stop.repeat(m))
        i = np.flatnonzero(keep)
        r = i % grp.size
        counts[row[r], self.start[grp[r]] + rank.ravel()[i] - 1] = n.ravel()[i]
        tab.cur[at] = c + 2 * _ROUND * (stop - p)
        pos[at] = stop
        short[at] = stop < p + m

    def _rounds(self, tab, counts, pos, short) -> None:
        """Rounds in lockstep for every trial at a large group or at a small
        one marked short, until each has reached a small group or the end.
        Arrays are proposal by trial."""
        t = ((pos < self.size.size) & (short | (self.run[pos] == 0))).nonzero()[0]
        short[t] = False
        g, d = pos[t], np.zeros(t.size, dtype=np.int64)  # each trial's group, counts drawn
        while t.size:
            need = self.size[g] - d
            k = np.maximum(need, _ROUND)
            end = tab.cur[t] + 2 * k
            tab.fill(t, end, end + self.rest[g + 1])
            # Trial i's u are the k[i] uniforms at its cursor, its v the k[i]
            # after them.  Zero-padded: a u of 0 is never accepted.
            cols = np.arange(int(k.max()))[:, None]
            ix = t * tab.u.shape[1] + tab.cur[t] + cols
            u, v = tab.u.take(ix, mode="clip"), tab.u.take(ix + k, mode="clip")
            pad = cols >= k
            u[pad] = v[pad] = 0.0
            n, accept = _atkinson_proposals(u, v, *self.consts[:, g])
            rank = accept.cumsum(axis=0)
            i = np.flatnonzero(accept & (rank <= need))
            r = i % t.size
            counts[t[r], self.start[g[r]] + d[r] + rank.ravel()[i] - 1] = n.ravel()[i]
            tab.cur[t] = end
            d += np.minimum(rank[-1], need)
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
    A single generator is the T = 1 case of the same draw.  The simulator
    passes its keyed trial streams (_Keyed) instead, whose positions move
    on by what each trial uses.

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
    reader = gen if isinstance(gen, _Keyed) else _Generators([gen] if single else gen)
    # The plan, shared by every trial: sort slots by intensity, stably, so
    # each distinct intensity's slots form one run in index order: zeros,
    # then inversion, then Atkinson.
    order = np.argsort(lam, axis=None, kind="stable")
    lam_sorted = lam.ravel()[order]
    starts = np.flatnonzero(np.diff(lam_sorted, prepend=-1.0) != 0)
    ends = np.append(starts[1:], lam_sorted.size)
    values = lam_sorted[starts]
    counts = np.zeros((len(reader), lam_sorted.size), dtype=np.int64)
    low = (values > 0) & (values < _INVERSION_CUTOFF)
    a, b = (starts[low][0], ends[low][-1]) if low.any() else (0, 0)
    high = values >= _INVERSION_CUTOFF
    atkinson = (_Atkinson(starts[high], (ends - starts)[high], values[high], reader.ahead)
                if high.any() else None)
    # A trial's first read: its inversion slots' uniforms, then what its
    # reader reads for all Atkinson groups.
    first = b - a + (atkinson.rest[0] if atkinson else 0)
    width = b - a + (atkinson.width if atkinson else 0)
    # Trials go in chunks so that one table holds about _TABLE_ENTRIES uniforms.
    chunk = max(1, _TABLE_ENTRIES // max(width, 1))
    cdfs = [(s, e, _inversion_cdf(x))
            for s, e, x in zip(starts[low].tolist(), ends[low].tolist(), values[low].tolist())]
    for lo in range(0, len(reader), chunk):
        rows = np.arange(min(chunk, len(reader) - lo))
        tab = _Table(reader, lo, rows.size, width)
        tab.fill(rows, np.full(rows.size, first), np.full(rows.size, first))
        for s, e, cdf in cdfs:
            counts[lo: lo + rows.size, s:e] = _inversion(cdf, tab.u[:, s - a: e - a])
        tab.cur[:] = b - a
        if atkinson:
            atkinson.draw(tab, counts[lo: lo + rows.size])
        reader.advance(lo, tab.cur)
    out = np.empty_like(counts)
    out[:, order] = counts
    return out.reshape(lam.shape if single else (len(reader),) + lam.shape)


def _draw_counts(lam: np.ndarray, sim: SimConfig, stream: int) -> np.ndarray:
    """Counts of shape trials x receivers x slots for the intensity rows lam
    (receivers x slots); with one receiver, a view of its draw.  Trial t
    draws from the (seed, (stream << 32) + t) substream, one `poisson_draw`
    call per receiver, rx 0 first, each going on where the last one left
    the trial's stream."""
    (R, S), T = lam.shape, sim.n_trials
    _check_bytes(T * R * S * np.dtype(np.int64).itemsize,
                 f"the simulated counts need trials x receivers x slots = {T} x {R} x {S} = "
                 f"{T * R * S} int64 entries", "simulate fewer trials or slots (--values)")
    streams = _Keyed(sim.seed, stream << 32, T)
    if R == 1:
        return poisson_draw(streams, lam[0])[:, None, :]
    outputs = np.empty((T, R, S), dtype=np.int64)
    for j in range(R):
        outputs[:, j] = poisson_draw(streams, lam[j])
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
