"""Monte Carlo simulator: reproducibility, distributional correctness,
thinning consistency, plug-in mutual-information estimates."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ltipc as lp
from ltipc.channel import DEFAULT_ENTRY_BUDGET
import ltipc.simulate
from ltipc.simulate import (_ROUND, _STREAM_NETWORK, _STREAM_P2P, _STREAM_PLUGIN, _Atkinson,
                            _atkinson_proposals, _draw_counts, _inversion, _inversion_cdf,
                            _plugin_mi_jackknife, poisson_draw, substream)
from ltipc.solver import _TINY, _log0

from helpers import poisson_pmf_recurrence


def chi2_gof_poisson(samples: np.ndarray, lam: float, significance: float) -> bool:
    """Goodness of fit against Poisson(lam), tail-pooled to expected >= 5."""
    n = samples.size
    kmax = int(lam + 10 * math.sqrt(lam + 1)) + 5
    pmf = poisson_pmf_recurrence(lam, kmax)
    pmf[-1] += max(0.0, 1.0 - pmf.sum())
    expected = n * pmf
    # pool the tail so every bin has expected count >= 5
    cut = np.searchsorted(np.cumsum(expected[::-1]), 5.0)
    cut = kmax - cut
    observed = np.bincount(np.minimum(samples, cut), minlength=cut + 1)
    exp_pooled = np.concatenate([expected[:cut], [expected[cut:].sum()]])
    stat = float(((observed - exp_pooled) ** 2 / exp_pooled).sum())
    return stat <= stats.chi2.ppf(1 - significance, df=cut)


class TestPoissonSampler:
    def test_deterministic_given_stream(self):
        a = poisson_draw(substream(9, 4), 7.5, 1000)
        b = poisson_draw(substream(9, 4), 7.5, 1000)
        np.testing.assert_array_equal(a, b)

    def test_zero_intensity(self):
        np.testing.assert_array_equal(poisson_draw(substream(1, 0), 0.0, 10),
                                      np.zeros(10, dtype=np.int64))

    @pytest.mark.parametrize("lam", [0.8, 5.0, 29.5, 30.0, 45.0, 120.0])
    def test_distribution(self, lam):
        """Chi-square goodness of fit across the inversion/accept-reject
        cutoff at significance 1e-3."""
        x = poisson_draw(substream(123, 7), lam, 100_000)
        assert chi2_gof_poisson(x, lam, 1e-3)

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            poisson_draw(substream(0, 0), -1.0, 5)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_bad_intensity_in_array(self, bad):
        with pytest.raises(ValueError):
            poisson_draw(substream(0, 0), np.array([3.0, bad, 40.0]))


def draw_per_intensity(gen, lam):
    """One scalar draw per distinct intensity, ascending, scattered back to
    that intensity's slots: the contract of the array form."""
    out = np.empty(lam.size, dtype=np.int64)
    for value in np.unique(lam):
        slots = np.flatnonzero(lam == value)
        out[slots] = poisson_draw(gen, value, slots.size)
    return out


def assert_array_form_matches(lam, seed):
    """Same draws, and the generator left in the same state."""
    gen_a, gen_b = substream(seed, 5), substream(seed, 5)
    np.testing.assert_array_equal(poisson_draw(gen_a, lam), draw_per_intensity(gen_b, lam))
    np.testing.assert_array_equal(gen_a.random(8), gen_b.random(8))


ARRAY_FORM_CASES = [
    [0.0, 0.0, 0.0],
    [0.0, 2.5, 0.0, 2.5, 7.0],
    [29.999999, 30.0, 30.000001, 29.999999, 30.0],
    [45.0, 3.0, 45.0, 0.0, 31.0, 3.0, 120.0, 45.0],
    [55.0] * 40 + [31.0] * 17 + [12.0] * 5,          # Atkinson groups > 16
    list(np.resize([30.5, 33.0, 64.0, 90.0, 0.5], 80)),  # groups of exactly 16
    [60.0] * 3 + [75.0] * 600,                       # many rounds
    list(np.linspace(29.99, 0.01, 400)),             # many inversion cdfs
    list(np.resize(np.linspace(30.0, 31.0, 70), 560)),  # first rounds falling short
    list(np.linspace(0.01, 29.99, 1000)),            # 1,000 inversion cdfs
]

MIXED_INTENSITIES = (st.sampled_from([0.0, 0.3, 4.0, 17.5, 29.5, 30.0, 33.3, 58.0, 95.0, 240.0])
                     | st.floats(0.0, 150.0))


class TestArrayForm:
    @pytest.mark.parametrize("lam", ARRAY_FORM_CASES)
    def test_matches_per_intensity_loop(self, lam):
        for seed in range(4):
            assert_array_form_matches(np.array(lam), seed)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(MIXED_INTENSITIES, min_size=1, max_size=120), st.integers(0, 2 ** 32))
    def test_random_mix(self, lam, seed):
        assert_array_form_matches(np.array(lam), seed)

    @pytest.mark.parametrize("lam, size, digest", [
        (np.resize([30.5, 33.0, 64.0, 90.0, 0.5], 80), None,
         "7a48a6d6c4c644035144ae49276fa295f28e980e39072404b6a1d390aa9de9af"),
        (np.array([45.0, 3.0, 45.0, 0.0, 31.0, 3.0, 120.0, 45.0] * 3), None,
         "ed7c48300d9d01b582ff76207183bbd64a3bf8c98bfd16259114c32c9a07ca36"),
        (np.resize(np.linspace(30.0, 31.0, 70), 560), None,
         "ccd64b98de4df1309178fe08ba6932bc21cb272b6d3a55891664cdc4cbb86c3b"),
        (45.0, 16, "14bc9d561b50b3d1d62a3ecbc52377f765c9e84d257f4d946fc446d824ecf2e2"),
        (120.0, 5, "4a97158a87955ba632a93dde3e3444337b5b401de8462f987e0aff7e5b229862"),
        (6.0, 1000, "2afa5840fbfd6188277703220484f37254ee938e79b15fa13572d32bfc637b65"),
        (75.0, 600, "d10548127fc85231e8fe8103f89459acff9e7f31e517da653acc3bd3e01f39c5"),
    ])
    def test_draws_and_next_uniforms_pinned(self, lam, size, digest):
        """Digest of the draws and the next 8 uniforms, recorded with the
        per-intensity scalar sampler before the array form existed: the
        generator must end where drawing group by group left it."""
        gen = substream(11, 3)
        draws = poisson_draw(gen, lam, size)
        assert hashlib.sha256(draws.astype(np.int64).tobytes()
                              + gen.random(8).tobytes()).hexdigest() == digest

    def test_inversion_with_trial_axis_matches_rows(self):
        u = substream(4, 0).random((400, 5, 2))
        for lam, u_lam in zip(np.linspace(29.99, 0.01, 400).tolist(), u):
            cdf = _inversion_cdf(lam)
            counts = _inversion(cdf, u_lam)
            assert counts.shape == u_lam.shape
            for t in range(u_lam.shape[0]):
                np.testing.assert_array_equal(counts[t], _inversion(cdf, u_lam[t]))

    def test_inversion_takes_smallest_k_with_u_at_most_cdf(self):
        lam = 2.0
        f0 = math.exp(-lam)
        f1 = f0 + f0 * (lam / 1)
        u = np.array([0.0, f0, np.nextafter(f0, 1.0), f1, np.nextafter(f1, 1.0)])
        np.testing.assert_array_equal(_inversion(_inversion_cdf(lam), u), [0, 0, 1, 1, 2])

    def test_keeps_shape(self):
        lam = np.array([[1.0, 40.0, 0.0], [40.0, 1.0, 5.0]])
        y = poisson_draw(substream(3, 1), lam)
        assert y.shape == lam.shape and y.dtype == np.int64
        np.testing.assert_array_equal(
            y.ravel(), poisson_draw(substream(3, 1), lam.ravel()))


def trial_generators(seed, n_trials):
    return [substream(seed, trial) for trial in range(n_trials)]


def assert_list_form_matches(lam, seed, n_trials):
    """Row t of one call over n_trials generators is a call of its own on
    generator t, and every generator is left where that call leaves it."""
    gens_a, gens_b = trial_generators(seed, n_trials), trial_generators(seed, n_trials)
    rows = poisson_draw(gens_a, lam)
    assert rows.shape == (n_trials,) + lam.shape and rows.dtype == np.int64
    np.testing.assert_array_equal(rows, [poisson_draw(g, lam) for g in gens_b])
    np.testing.assert_array_equal([g.random(8) for g in gens_a], [g.random(8) for g in gens_b])


class CountingGenerator:
    """A generator that counts the reads made of it."""

    def __init__(self, gen):
        self.gen, self.reads = gen, 0

    def random(self, *args, **kwargs):
        self.reads += 1
        return self.gen.random(*args, **kwargs)


def benchmark_waveforms():
    """Intensities of a 128-slot i.i.d. grid-9 waveform and a 256-slot on-off
    waveform: taps 0.5/0.3/0.2, lambda0 5, amax 80."""
    taps = (0.5, 0.3, 0.2)
    base = np.random.default_rng(20141014)
    iid = base.permutation(np.resize(np.linspace(0, 80, 9), 128))
    ook = base.permutation(np.resize([0.0, 80.0], 256))
    return 5.0 + np.convolve(iid, taps)[:128], 5.0 + np.convolve(ook, taps)[:256]


def open_groups_waveform():
    """Atkinson groups of 1-8 slots at intensities in [30, 31), where the
    sampler accepts least, between groups of 9-40 slots, in [30, 31) and
    above, which are drawn in rounds; 1,072 slots, shuffled."""
    small = [(30.0 + i / 64, 1 + i % 8) for i in range(64)]
    large = ([(30.0 + (2 * i + 1) / 64, 9 + i) for i in range(16)]
             + [(40.0 + 3 * i, 9 + i) for i in range(16, 32)])
    lam = np.concatenate([np.full(size, value) for value, size in small + large])
    return np.random.default_rng(20141014).permutation(lam)


class TestTrialBatch:
    @pytest.mark.parametrize("n_trials", [1, 3, 17])
    @pytest.mark.parametrize("lam", ARRAY_FORM_CASES)
    def test_matches_one_call_per_generator(self, lam, n_trials):
        assert_list_form_matches(np.array(lam), seed=n_trials, n_trials=n_trials)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(MIXED_INTENSITIES, min_size=1, max_size=120), st.integers(1, 20),
           st.integers(0, 2 ** 32))
    def test_random_mix(self, lam, n_trials, seed):
        assert_list_form_matches(np.array(lam), seed, n_trials)

    @pytest.mark.parametrize("lam", [
        benchmark_waveforms()[0],    # runs of small groups: 2 trials a table
        np.full(1025, 75.0),         # one large group: 1 trial a table
    ], ids=["small-groups", "large-group"])
    def test_chunks_match_single_trials(self, lam, monkeypatch):
        """More trials than one table holds: 100 trials, tables of about
        4,096 uniforms."""
        monkeypatch.setattr(ltipc.simulate, "_TABLE_ENTRIES", 1 << 12)
        assert_list_form_matches(lam, 6, 100)

    @pytest.mark.parametrize("case, most", [("iid", 2), ("on-off", 5)])
    def test_generator_reads_per_trial(self, case, most):
        """A trial's first read takes every uniform it is certain to use,
        and a later one all it is then certain to use, so 200 trials make
        few reads each."""
        lam = dict(zip(("iid", "on-off"), benchmark_waveforms()))[case]
        gens = [CountingGenerator(g) for g in trial_generators(11, 200)]
        poisson_draw(gens, lam)
        assert sum(g.reads for g in gens) <= most * len(gens)

    def test_size_and_shape(self):
        gens = trial_generators(2, 3)
        assert poisson_draw(gens, 45.0, 7).shape == (3, 7)
        lam = np.array([[1.0, 40.0, 0.0], [40.0, 1.0, 5.0]])
        assert poisson_draw(trial_generators(2, 4), lam).shape == (4, 2, 3)

    @pytest.mark.parametrize("case, digest", [
        ("iid", "df8ef1ecb11c1d78e5021d6f747a993a7f06bf99675d753bbd3bdedf49b57028"),
        ("on-off", "f27db21d039a4b93b6ac873b2959e580dad11574a18987467efe6f2cdf247f97"),
        ("uneven-rounds", "f12a2fe904bf7aec9dd8ce81e112cbe03d0c66b9b6ee248f0808da28ae6cde71"),
    ])
    def test_200_trials_pinned(self, case, digest):
        """Digest of 200 trials' draws and each generator's next 8 uniforms,
        recorded with one call per trial before trials were batched."""
        iid, ook = benchmark_waveforms()
        lam = {"iid": iid, "on-off": ook,
               "uneven-rounds": np.array([75.0] * 600 + [31.0] * 17 + [12.0] * 5)}[case]
        gens = trial_generators(11, 200)
        h = hashlib.sha256(poisson_draw(gens, lam).astype(np.int64).tobytes())
        for g in gens:
            h.update(g.random(8).tobytes())
        assert h.hexdigest() == digest

    def test_open_groups_pinned(self, monkeypatch):
        """Digest of 40 trials' draws and each generator's next 8 uniforms,
        recorded before the accept test was evaluated head first.  A trial
        is sent to rounds at a small group only when the group's whole first
        round falls short, so a round the head leaves open is evaluated to
        its end."""
        rounds, sent = _Atkinson._rounds, []

        def checked_rounds(self, tab, counts, pos, short):
            for t in short.nonzero()[0].tolist():
                # The trial's cursor is at the group's first round.
                uv = tab.u[t, tab.cur[t]: tab.cur[t] + 2 * _ROUND]
                _, accept = _atkinson_proposals(uv[:_ROUND], uv[_ROUND:], *self.consts[:, pos[t]])
                sent.append(np.count_nonzero(accept) < self.size[pos[t]])
            rounds(self, tab, counts, pos, short)

        monkeypatch.setattr(_Atkinson, "_rounds", checked_rounds)
        gens = trial_generators(13, 40)
        h = hashlib.sha256(poisson_draw(gens, open_groups_waveform()).astype(np.int64).tobytes())
        for g in gens:
            h.update(g.random(8).tobytes())
        assert h.hexdigest() == "ac0c1a032070f9bd9d9f2091894498986c52af1f7b722d82d233e57f51f73cca"
        assert sent and all(sent)


def stream_position(gen):
    """Uniforms a Philox generator has given: its counter counts the blocks
    of four it has made, its buffer position those used of the last."""
    state = gen.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


class TestKeyedStreams:
    """_draw_counts reads trial t's (seed, (stream << 32) + t) substream
    through one re-keyed Philox: row by row it must equal poisson_draw over
    the substreams themselves, one call per receiver."""

    @staticmethod
    def assert_matches_substreams(lam, sim, stream):
        gens = [substream(sim.seed, (stream << 32) + t) for t in range(sim.n_trials)]
        expected = np.stack([poisson_draw(gens, lam_rx) for lam_rx in lam], axis=1)
        np.testing.assert_array_equal(_draw_counts(lam, sim, stream), expected)

    def test_one_receiver(self):
        lam = benchmark_waveforms()[1][None]
        self.assert_matches_substreams(lam, lp.SimConfig(seed=5, n_slots=256, n_trials=30),
                                       _STREAM_P2P)

    def test_second_receiver_goes_on_inside_a_block(self):
        """rx 1 starts each trial where rx 0 left its stream, for some
        trials inside one of Philox's blocks of four uniforms."""
        iid, ook = benchmark_waveforms()
        lam = np.vstack([iid, ook[:128]])
        sim = lp.SimConfig(seed=8, n_slots=128, n_trials=40)
        gens = [substream(8, (_STREAM_NETWORK << 32) + t) for t in range(40)]
        poisson_draw(gens, lam[0])
        assert any(stream_position(g) % 4 for g in gens)
        self.assert_matches_substreams(lam, sim, _STREAM_NETWORK)

    def test_rows_grow(self, monkeypatch):
        """A group of 9 slots at intensity 30: a trial whose first round
        falls short reads again, past what it first read ahead."""
        reads, read = [], ltipc.simulate._Keyed.read
        monkeypatch.setattr(ltipc.simulate._Keyed, "read",
                            lambda self, t, start, out: reads.append(t) or read(self, t, start, out))
        self.assert_matches_substreams(np.full((1, 9), 30.0),
                                       lp.SimConfig(seed=5, n_slots=9, n_trials=40), _STREAM_P2P)
        assert len(reads) > 40

    def test_more_trials_than_a_table(self, monkeypatch):
        """Tables of about 4,096 uniforms: 2 trials of rx 0 a table, 25
        trials; positions carry over to rx 1 across tables."""
        monkeypatch.setattr(ltipc.simulate, "_TABLE_ENTRIES", 1 << 12)
        iid, ook = benchmark_waveforms()
        self.assert_matches_substreams(np.vstack([iid, ook[128:]]),
                                       lp.SimConfig(seed=3, n_slots=128, n_trials=25),
                                       _STREAM_NETWORK)


def outputs_digest(trace):
    return hashlib.sha256(trace.outputs.astype(np.int64).tobytes()).hexdigest()


class TestGoldenTraces:
    """Output digests recorded before the per-trial draw was vectorized;
    a change to the sampler that moves any count shows here."""

    P2P_SPEC = lp.ChannelSpec(lp.ImpulseResponse((0.5, 0.3, 0.2)), 5.0, 80.0, 40.0)

    @pytest.mark.parametrize("x, digest", [
        (np.resize(np.linspace(0, 80, 9), 45),
         "dee5aaf80b2edd57135256b678476b327405704a8d94571a04b718093b27306f"),
        (np.resize([0.0, 80.0], 64),
         "ceb71d6f9a8da601339f994d3cac00ef313004866e391ffc449e3c1babaefb5b"),
        (np.random.default_rng(20141014).permutation(np.resize(np.linspace(0, 80, 9), 128)),
         "500c2af16263f679867a6966293039e8069b4053ba6683df006147fe3fc7e976"),
    ])
    def test_p2p(self, x, digest):
        sim = lp.SimConfig(seed=7, n_slots=x.size, n_trials=50)
        assert outputs_digest(lp.simulate_p2p(self.P2P_SPEC, x, sim)) == digest

    def test_network(self):
        impulses = np.zeros((2, 2, 2))
        impulses[0, 0] = (0.6, 0.4)
        impulses[1, 1] = (1.0, 0.0)
        impulses[0, 1] = (0.2, 0.1)
        net = lp.NetworkSpec(impulses=impulses, lambda0=2.0, amax=np.array([60.0, 60.0]),
                             alpha=np.array([10.0, 10.0]))
        x = np.vstack([np.resize([0, 60, 30], 24), np.resize([60, 0], 24)])
        trace = lp.simulate_network(net, x, lp.SimConfig(seed=9, n_slots=24, n_trials=40))
        assert outputs_digest(trace) == \
            "0c164f7d52ba50c8c3de48ce3f6fd25b6a13732fb1ff099399f81ba82c7ecebf"


class TestSimulateP2P:
    def spec(self):
        return lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)

    def test_reproducible(self):
        sim = lp.SimConfig(seed=42, n_slots=16, n_trials=25)
        x = np.linspace(0, 40, 16)
        t1 = lp.simulate_p2p(self.spec(), x, sim)
        t2 = lp.simulate_p2p(self.spec(), x, sim)
        np.testing.assert_array_equal(t1.outputs, t2.outputs)
        assert not np.array_equal(
            t1.outputs,
            lp.simulate_p2p(self.spec(), x, lp.SimConfig(seed=43, n_slots=16,
                                                         n_trials=25)).outputs)

    def test_all_zero_input_no_noise(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 0.0, 40.0, 5.0)
        sim = lp.SimConfig(seed=1, n_slots=10, n_trials=20)
        trace = lp.simulate_p2p(spec, np.zeros(10), sim)
        assert np.all(trace.outputs == 0)

    def test_constant_input_slot_means(self):
        """After the memory transient the mean settles at lam0 + c."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 10.0)
        n_trials = 3000
        sim = lp.SimConfig(seed=5, n_slots=12, n_trials=n_trials)
        trace = lp.simulate_p2p(spec, np.full(12, 10.0), sim)
        means = trace.outputs[:, 0, :].mean(axis=0)
        se = math.sqrt(15.0 / n_trials)
        np.testing.assert_allclose(means[1:], 15.0, atol=4 * se)

    def test_single_pulse_spreads_by_taps(self):
        spec = self.spec()
        n_trials = 4000
        sim = lp.SimConfig(seed=6, n_slots=3, n_trials=n_trials)
        trace = lp.simulate_p2p(spec, np.array([40.0, 0.0, 0.0]), sim)
        means = trace.outputs[:, 0, :].mean(axis=0)
        for slot, lam in enumerate([5 + 0.7 * 40, 5 + 0.3 * 40, 5.0]):
            assert abs(means[slot] - lam) <= 4 * math.sqrt(lam / n_trials)

    def test_rejects_out_of_range_inputs(self):
        sim = lp.SimConfig(seed=1, n_slots=2, n_trials=1)
        with pytest.raises(ValueError):
            lp.simulate_p2p(self.spec(), np.array([0.0, 41.0]), sim)


class TestThinning:
    def test_split_arrivals_match_independent_poissons(self):
        """Splitting Poisson(x) arrivals with probabilities (p0, p1) yields
        independent Poisson(x p0), Poisson(x p1) slot counts; chi-square at
        significance 1e-3 over 1e5 trials."""
        x, p0, p1 = 6.0, 0.5, 0.3
        n_trials = 100_000
        gen = substream(2718, 99)
        totals = poisson_draw(gen, x, n_trials)
        grand = int(totals.sum())
        u = gen.random(grand)
        cats = np.searchsorted(np.array([p0, p0 + p1]), u, side="right")
        trial_idx = np.repeat(np.arange(n_trials), totals)
        counts = np.zeros((n_trials, 3), dtype=np.int64)
        np.add.at(counts, (trial_idx, cats), 1)

        assert chi2_gof_poisson(counts[:, 0], x * p0, 1e-3)
        assert chi2_gof_poisson(counts[:, 1], x * p1, 1e-3)

        # independence of the two slots
        cap0 = int(np.quantile(counts[:, 0], 0.995))
        cap1 = int(np.quantile(counts[:, 1], 0.995))
        table = np.zeros((cap0 + 1, cap1 + 1), dtype=np.int64)
        np.add.at(table, (np.minimum(counts[:, 0], cap0),
                          np.minimum(counts[:, 1], cap1)), 1)
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 1e-3


class TestSimulateNetwork:
    def net(self):
        # tx0 -> rx0 with spread taps, tx1 -> rx1 direct; cross links zero
        impulses = np.zeros((2, 2, 2))
        impulses[0, 0] = (0.6, 0.4)
        impulses[1, 1] = (1.0, 0.0)
        return lp.NetworkSpec(impulses=impulses, lambda0=2.0,
                              amax=np.array([20.0, 20.0]),
                              alpha=np.array([10.0, 10.0]))

    def test_single_node_matches_p2p_law(self):
        """s = d = 1 network follows the same Poisson slot law as the point
        to point simulator."""
        taps = (0.7, 0.3)
        net = lp.NetworkSpec(impulses=np.array([[taps]]), lambda0=5.0,
                             amax=np.array([40.0]), alpha=np.array([5.0]))
        n_trials = 3000
        sim = lp.SimConfig(seed=12, n_slots=8, n_trials=n_trials)
        x = np.full((1, 8), 10.0)
        trace = lp.simulate_network(net, x, sim)
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), 5.0, 40.0, 5.0)
        lam = 5.0 + lp.convolve(x[0], spec.impulse)
        means = trace.outputs[:, 0, :].mean(axis=0)
        for slot in range(8):
            assert abs(means[slot] - lam[slot]) <= 4 * math.sqrt(lam[slot] / n_trials)
        assert chi2_gof_poisson(trace.outputs[:, 0, -1], lam[-1], 1e-3)

    def test_superposition_of_two_transmitters(self):
        impulses = np.zeros((2, 1, 2))
        impulses[0, 0] = (0.6, 0.4)
        impulses[1, 0] = (1.0, 0.0)
        net = lp.NetworkSpec(impulses=impulses, lambda0=1.0,
                             amax=np.array([10.0, 10.0]),
                             alpha=np.array([5.0, 5.0]))
        n_trials = 3000
        sim = lp.SimConfig(seed=13, n_slots=10, n_trials=n_trials)
        x = np.vstack([np.full(10, 4.0), np.full(10, 6.0)])
        trace = lp.simulate_network(net, x, sim)
        means = trace.outputs[:, 0, 1:].mean(axis=0)
        np.testing.assert_allclose(means, 11.0,
                                   atol=4 * math.sqrt(11.0 / n_trials))

    def test_zero_impulse_pair_is_isolated(self):
        """A pulse on tx0 shows at rx0 but leaves rx1 at its baseline."""
        net = self.net()
        n_trials = 4000
        sim = lp.SimConfig(seed=14, n_slots=6, n_trials=n_trials)
        x = np.zeros((2, 6))
        x[0, 2] = 20.0  # pulse on tx0 only
        trace = lp.simulate_network(net, x, sim)
        rx0 = trace.outputs[:, 0, :].mean(axis=0)
        rx1 = trace.outputs[:, 1, :].mean(axis=0)
        assert rx0[2] > 2.0 + 0.6 * 20.0 - 4 * math.sqrt(14.0 / n_trials)
        np.testing.assert_allclose(rx1, 2.0, atol=4 * math.sqrt(2.0 / n_trials))

    def test_dimension_mismatch(self):
        sim = lp.SimConfig(seed=1, n_slots=4, n_trials=1)
        with pytest.raises(ValueError):
            lp.simulate_network(self.net(), np.zeros((1, 4)), sim)

    def test_output_budget_counts_receivers(self):
        """Trials x receivers x slots above DEFAULT_ENTRY_BUDGET is refused
        before drawing: 1,000 trials of 100,001 slots are over it with two
        receivers, and with one receiver at twice the slots."""
        sim = lp.SimConfig(seed=1, n_slots=DEFAULT_ENTRY_BUDGET // 2000 + 1, n_trials=1000)
        with pytest.raises(lp.BudgetExceededError, match="= 1000 x 2 x 100001 ="):
            lp.simulate_network(self.net(), np.zeros((2, sim.n_slots)), sim)
        big = lp.SimConfig(seed=1, n_slots=2 * sim.n_slots, n_trials=1000)
        with pytest.raises(lp.BudgetExceededError, match="= 1000 x 1 x 200002 ="):
            lp.simulate_p2p(TestGoldenTraces.P2P_SPEC, np.zeros(big.n_slots), big)


def sparse_table(shape, n):
    """n samples over a table of the given shape, many cells empty or single."""
    rng = np.random.default_rng(n)
    w = rng.random(shape) ** 4
    return rng.multinomial(n, (w / w.sum()).ravel()).reshape(shape)


class TestPluginMi:
    def test_identity_channel(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1))
        est = lp.plugin_mi_estimate(ch, [0.5, 0.5], 1_000_000, seed=21)
        assert abs(est.value - math.log(2)) < 0.003

    def test_identical_rows_near_zero(self):
        row = np.array([0.3, 0.7])
        ch = lp.DiscreteChannel(np.tile(row, (2, 1)), np.zeros(2), (0, 1))
        est = lp.plugin_mi_estimate(ch, [0.5, 0.5], 100_000, seed=22)
        assert est.value <= 3 * est.stderr + est.bias + 1e-9

    def test_matches_exact_mi_within_error(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
        ch = lp.build_memoryless_channel(spec, lp.InputGrid((0.0, 40.0)))
        p = np.array([0.875, 0.125])
        exact = lp.mutual_information(ch, p)
        est = lp.plugin_mi_estimate(ch, p, 200_000, seed=23)
        assert abs(est.value - exact) <= 3 * est.stderr + est.bias

    @staticmethod
    def per_cell_jackknife(counts):
        """Reference: the plug-in value and its jackknife standard error, with
        one full recomputation per occupied cell."""
        def plugin(c, n):
            p = c / n
            px = p.sum(axis=1, keepdims=True)
            py = p.sum(axis=0, keepdims=True)
            return float((p * _log0(p / np.maximum(px * py, _TINY))).sum())

        n = int(counts.sum())
        occupied = np.argwhere(counts > 0)
        loo = np.empty(occupied.shape[0])
        weights = np.empty(occupied.shape[0])
        scratch = counts.astype(np.float64)
        for idx, (i, j) in enumerate(occupied):
            scratch[i, j] -= 1.0
            loo[idx] = plugin(scratch, n - 1)
            scratch[i, j] += 1.0
            weights[idx] = counts[i, j]
        loo_mean = float(weights @ loo) / n
        var = (n - 1) / n * float(weights @ (loo - loo_mean) ** 2)
        return plugin(counts, n), math.sqrt(max(var, 0.0))

    @pytest.mark.parametrize("counts", [
        np.array([[1, 0, 3], [0, 1, 0], [2, 0, 5]]),  # a row and a column of one sample
        sparse_table((2, 2), 40), sparse_table((3, 7), 500), sparse_table((9, 151), 200_000),
    ], ids=["hand", "2x2", "3x7", "9x151"])
    def test_closed_form_jackknife_matches_per_cell_loop(self, counts):
        value, stderr = _plugin_mi_jackknife(counts)
        ref_value, ref_stderr = self.per_cell_jackknife(counts)
        assert abs(value - ref_value) <= 1e-13
        assert abs(stderr - ref_stderr) <= 1e-9 * ref_stderr

    def test_nine_inputs_pinned(self, monkeypatch):
        """value and stderr by float.hex on a 9-input Poisson channel,
        recorded when samples were grouped by per-input masks and counted by
        np.add.at; the histogram is checked against that construction."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 80.0, 40.0)
        ch = lp.build_memoryless_channel(spec, lp.InputGrid(tuple(np.linspace(0.0, 80.0, 9))))
        p, n = np.full(9, 1.0 / 9.0), 200_000
        tables = []
        monkeypatch.setattr(ltipc.simulate, "_plugin_mi_jackknife",
                            lambda counts: tables.append(counts) or _plugin_mi_jackknife(counts))
        est = lp.plugin_mi_estimate(ch, p, n, seed=31)
        assert (est.value.hex(), est.stderr.hex()) == ("0x1.63601b32b4d94p+0",
                                                       "0x1.b0bc62ecf9830p-10")
        gen = substream(31, _STREAM_PLUGIN << 32)
        cum_p = np.cumsum(p)
        cum_p[-1] = 1.0
        xs = np.searchsorted(cum_p, gen.random(n), side="right")
        cum_w = np.cumsum(ch.transition, axis=1)
        cum_w[:, -1] = 1.0
        u = gen.random(n)
        ys = np.empty(n, dtype=np.int64)
        for xv in np.unique(xs):
            mask = xs == xv
            ys[mask] = np.searchsorted(cum_w[xv], u[mask], side="right")
        expected = np.zeros((ch.n_inputs, ch.n_outputs), dtype=np.int64)
        np.add.at(expected, (xs, ys), 1)
        [counts] = tables
        assert counts.shape == expected.shape
        np.testing.assert_array_equal(counts, expected)

    def test_minimum_sample_guard(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1))
        with pytest.raises(ValueError):
            lp.plugin_mi_estimate(ch, [0.5, 0.5], 10, seed=0)


class TestTraceExport:
    def test_row_streams(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 1.0, 5.0, 1.0)
        sim = lp.SimConfig(seed=3, n_slots=2, n_trials=2)
        trace = lp.simulate_p2p(spec, np.array([1.0, 2.0]), sim)
        inp = list(trace.input_rows())
        out = list(trace.output_rows())
        assert len(inp) == 2 * 2 and len(out) == 2 * 2
        assert inp[0] == (0, 0, 0, 1.0) and inp[1] == (0, 1, 0, 2.0)
        assert all(y >= 0 and isinstance(y, int) for (_, _, _, y) in out)
