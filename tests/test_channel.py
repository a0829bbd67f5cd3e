"""Channel construction: pmf truncation, convolution, discretization."""
import json
import tracemalloc

import numpy as np
import pytest

import ltipc as lp
from ltipc.channel import _pmf_on_support, parse_instance, truncation_point

from helpers import poisson_mean_by_recurrence, poisson_pmf_recurrence


class TestPoissonPmf:
    def test_degenerate_zero_intensity(self):
        np.testing.assert_array_equal(lp.poisson_pmf(0.0, 1e-12), [1.0])

    def test_unit_intensity_head(self):
        """Entry at y=0 is e^-1 up to the 1e-12 renormalization."""
        v = lp.poisson_pmf(1.0, 1e-12)
        assert abs(v[0] - np.exp(-1)) < 1e-9

    def test_mean_matches_recurrence_oracle(self):
        v = lp.poisson_pmf(45.0, 1e-12)
        oracle = poisson_pmf_recurrence(45.0, v.size - 1)
        oracle_mean = poisson_mean_by_recurrence(oracle / oracle.sum())
        assert abs(poisson_mean_by_recurrence(v) - 45.0) < 1e-8
        assert abs(poisson_mean_by_recurrence(v) - oracle_mean) < 1e-10

    def test_sums_to_one(self):
        for lam in (0.3, 2.0, 45.0, 120.0):
            assert abs(lp.poisson_pmf(lam, 1e-10).sum() - 1.0) < 1e-12

    def test_truncation_point_is_smallest(self):
        """ymax is the smallest y with SciPy's pdtrc(y, lam) < eps, on fixed
        cases up to lam = 1e6 and a seeded sweep of lam over [1e-6, 3000]."""
        from scipy.special import pdtrc
        cases = [(5.0, 1e-10), (45.0, 1e-12), (0.7, 1e-6),
                 (1e-6, 1e-3), (1e-6, 1e-15), (1e3, 1e-3),
                 (1e3, 1e-15), (1e6, 1e-3), (1e6, 1e-15)]
        rng = np.random.default_rng(16)
        for eps in (1e-3, 1e-6, 1e-9, 1e-10, 1e-12, 1e-15):
            cases += [(lam, eps) for lam in 10.0 ** rng.uniform(-6.0, np.log10(3000.0), 400)]
        lam, eps = map(np.array, zip(*cases))
        y = np.array([truncation_point(*case) for case in cases])
        assert (pdtrc(y, lam) < eps).all()
        assert (pdtrc(y - 1, lam) >= eps)[y > 0].all()

    def test_pmf_on_support_matches_recurrence(self):
        """Seeded sweep of lam over [1e-6, 700] (the recurrence's exp(-lam)
        underflows beyond): entry k of the pmf is exp(k log lam - lam -
        log k!), so its relative error is a few roundings of the largest of
        those terms, plus one per step of the recurrence."""
        from scipy.special import gammaln
        rng = np.random.default_rng(17)
        for lam in 10.0 ** rng.uniform(-6.0, np.log10(700.0), 300):
            for eps in (1e-3, 1e-10, 1e-15):
                ymax = truncation_point(lam, eps)
                ref = poisson_pmf_recurrence(lam, ymax)
                ref /= ref.sum()
                k = np.arange(ymax + 1)
                scale = k * abs(np.log(lam)) + lam + gammaln(k + 1.0) + k + 1.0
                err = np.abs(_pmf_on_support(lam, ymax) / ref - 1.0)
                assert (err <= 8 * np.finfo(float).eps * scale).all(), (lam, eps)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lp.poisson_pmf(float("nan"), 1e-10)
        with pytest.raises(ValueError):
            lp.poisson_pmf(-1.0, 1e-10)
        with pytest.raises(ValueError):
            lp.poisson_pmf(1.0, 0.0)


class TestConvolve:
    def test_identity_filter(self):
        out = lp.convolve([5.0, 0.0, 0.0], lp.ImpulseResponse((1.0,)))
        np.testing.assert_allclose(out, [5.0, 0.0, 0.0])

    def test_hand_convolution(self):
        out = lp.convolve([10.0, 20.0], lp.ImpulseResponse((0.7, 0.3)))
        np.testing.assert_allclose(out, [7.0, 17.0])

    def test_zero_input(self):
        out = lp.convolve(np.zeros(6), lp.ImpulseResponse((0.4, 0.3, 0.2)))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_rejects_negative_inputs(self):
        """NaN is refused too, rather than returned."""
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="inputs must be nonnegative"):
                lp.convolve([2.0, bad], lp.ImpulseResponse((1.0,)))


class TestImpulseResponse:
    def test_invariants(self):
        with pytest.raises(ValueError):
            lp.ImpulseResponse((-0.1, 0.5))
        with pytest.raises(ValueError):
            lp.ImpulseResponse((0.8, 0.3))
        imp = lp.ImpulseResponse((0.4, 0.2))
        assert imp.order == 1 and abs(imp.mass - 0.6) < 1e-15

    def test_normalize_and_trim(self):
        imp = lp.ImpulseResponse((0.4, 0.2, 0.0, 0.0))
        assert abs(sum(imp.normalize().taps) - 1.0) < 1e-12
        assert imp.trimmed().taps == (0.4, 0.2)


@pytest.fixture(scope="module")
def memoryless():
    spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
    grid = lp.InputGrid.uniform(40.0, 9)
    return spec, grid, lp.build_memoryless_channel(spec, grid)


class TestMemorylessChannel:
    def test_degenerate_single_point(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 0.0, 1.0, 0.0)
        grid = lp.InputGrid((0.0, 1.0))
        ch = lp.build_memoryless_channel(spec, grid)
        # the zero row is the degenerate count distribution
        assert ch.transition[0, 0] == 1.0
        np.testing.assert_allclose(ch.cost, [0.0, 1.0])

    def test_rows_are_poisson_pmfs(self, memoryless):
        """Rows for lam0=5, A=40 are Poisson(5) and Poisson(45)."""
        _, _, ch = memoryless
        ymax = ch.n_outputs - 1
        for row, lam in ((0, 5.0), (8, 45.0)):
            oracle = poisson_pmf_recurrence(lam, ymax)
            np.testing.assert_allclose(ch.transition[row], oracle / oracle.sum(),
                                       rtol=1e-9, atol=1e-300)

    def test_rows_stochastic_nonnegative(self, memoryless):
        _, _, ch = memoryless
        np.testing.assert_allclose(ch.transition.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(ch.transition >= 0)

    def test_truncation_mass_below_tail_eps(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
        grid = lp.InputGrid.uniform(40.0, 5)
        tail = 1e-8
        ch = lp.build_memoryless_channel(spec, grid, tail_eps=tail)
        ymax = ch.n_outputs - 1
        from scipy.special import pdtrc
        for x in grid.points:
            assert pdtrc(ymax, 5.0 + x) < tail

    def test_rows_converge_in_tv_as_noise_grows(self):
        """Total variation between extreme rows shrinks as lam0 grows."""
        tvs = []
        for lam0 in (5.0, 50.0, 500.0):
            spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), lam0, 40.0, 5.0)
            ch = lp.build_memoryless_channel(spec, lp.InputGrid((0.0, 40.0)))
            tvs.append(0.5 * np.abs(ch.transition[0] - ch.transition[1]).sum())
        assert tvs[0] > tvs[1] > tvs[2]

    def test_requires_single_tap(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 3))

    def test_grid_must_span_to_peak(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            lp.build_memoryless_channel(spec, lp.InputGrid((0.0, 20.0)))
        with pytest.raises(ValueError):
            lp.InputGrid((1.0, 40.0))  # must start at zero


class TestBlockChannel:
    def test_reduces_to_memoryless(self, memoryless):
        spec, grid, ch = memoryless
        block = lp.build_block_channel(lp.BlockChannelSpec(spec, grid, r=1))
        np.testing.assert_allclose(block.transition, ch.transition, atol=1e-15)
        np.testing.assert_allclose(block.cost, ch.cost)

    def test_known_row_full_intensity(self):
        """Row for the all-A tuple is Poisson(lam0 + A) when taps sum to 1."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
        grid = lp.InputGrid((0.0, 40.0))
        block = lp.build_block_channel(lp.BlockChannelSpec(spec, grid, r=1))
        assert block.n_inputs == 4
        idx = block.input_labels.index((40.0, 40.0))
        oracle = poisson_pmf_recurrence(45.0, block.n_outputs - 1)
        np.testing.assert_allclose(block.transition[idx], oracle / oracle.sum(),
                                   rtol=1e-9, atol=1e-300)

    def test_shapes_and_stochasticity(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
        grid = lp.InputGrid.uniform(40.0, 3)
        block = lp.build_block_channel(lp.BlockChannelSpec(spec, grid, r=2))
        assert block.n_inputs == 27
        ymax1 = int(round(block.n_outputs ** 0.5))
        assert ymax1 * ymax1 == block.n_outputs
        np.testing.assert_allclose(block.transition.sum(axis=1), 1.0, atol=1e-9)

    def test_product_structure_for_no_memory(self):
        """k=0 block of length 2: MI under product input is twice the
        single-letter value."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 2.0, 10.0, 5.0)
        grid = lp.InputGrid.uniform(10.0, 3)
        single = lp.build_memoryless_channel(spec, grid)
        block = lp.build_block_channel(lp.BlockChannelSpec(spec, grid, r=2))
        p1 = np.array([0.5, 0.2, 0.3])
        mi1 = lp.mutual_information(single, p1)
        mi2 = lp.mutual_information(block, np.kron(p1, p1))
        assert abs(mi2 - 2.0 * mi1) < 1e-8

    def test_slot_marginal_depends_on_window_only(self):
        """Marginalizing one output slot of a 2-slot block leaves a law that
        depends only on that slot's input window."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.6, 0.4)), 3.0, 20.0, 5.0)
        grid = lp.InputGrid.uniform(20.0, 3)
        block = lp.build_block_channel(lp.BlockChannelSpec(spec, grid, r=2))
        n_y = int(round(block.n_outputs ** 0.5))
        T = block.transition.reshape(block.n_inputs, n_y, n_y)
        first = T.sum(axis=2)   # marginal of the first observed slot
        second = T.sum(axis=1)  # marginal of the second observed slot
        labels = block.input_labels
        for a in range(block.n_inputs):
            for b in range(block.n_inputs):
                if labels[a][:2] == labels[b][:2]:
                    np.testing.assert_allclose(first[a], first[b], atol=1e-12)
                if labels[a][1:] == labels[b][1:]:
                    np.testing.assert_allclose(second[a], second[b], atol=1e-12)

    def test_rows_are_products_of_slot_pmfs(self):
        """Reference loop: every row is the product of the per-slot pmfs of
        its window intensities.  The np.kron also pins the output column
        order: row-major over the observed slots, the first slowest."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.6, 0.3, 0.1)), 3.0, 20.0, 5.0)
        block = lp.build_block_channel(
            lp.BlockChannelSpec(spec, lp.InputGrid.uniform(20.0, 3), r=2))
        ymax = int(round(block.n_outputs ** 0.5)) - 1
        for t, x in enumerate(block.input_labels):
            lam = [3.0 + 0.6 * x[s + 2] + 0.3 * x[s + 1] + 0.1 * x[s] for s in range(2)]
            ref = np.kron(*[_pmf_on_support(l, ymax) for l in lam])
            np.testing.assert_allclose(block.transition[t], ref, rtol=1e-13, atol=0)

    def test_budget_guard(self, monkeypatch):
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
        grid = lp.InputGrid.uniform(40.0, 9)
        monkeypatch.setattr(lp.channel, "DEFAULT_ENTRY_BUDGET", 1000)
        with pytest.raises(lp.BudgetExceededError, match="needs 729 x "):
            lp.build_block_channel(lp.BlockChannelSpec(spec, grid, r=2))

    def test_channel_holds_little_beyond_its_matrix(self):
        """With the channel alive, the memory still allocated is at most 5%
        above its transition matrix: no W-sized side structure is kept."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 1.0, 10.0, 1.0)
        bspec = lp.BlockChannelSpec(spec, lp.InputGrid.uniform(10.0, 2), r=3)
        lp.build_block_channel(bspec)  # warm the caches of the modules it calls
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            block = lp.build_block_channel(bspec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.05 * block.transition.nbytes


class TestScaleInvariance:
    def test_identity_at_beta_one(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
        assert lp.scale_invariance_transform(spec, 1.0) == spec

    def test_direct_substitution(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
        out = lp.scale_invariance_transform(spec, 2.0)
        assert out.amax == 80.0 and out.alpha == 10.0
        assert out.impulse.taps == (0.5,)
        assert out.lambda0 == 5.0

    def test_rejects_tap_overflow(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            lp.scale_invariance_transform(spec, 0.5)

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_capacity_invariant(self, beta):
        """The solver sees literally the same matrix after rescaling; the
        grid scales along with the peak.  Tap mass 0.5 keeps beta = 0.5
        inside the taps <= 1 constraint."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.35, 0.15)), 5.0, 40.0, 5.0)
        scaled = lp.scale_invariance_transform(spec, beta)
        cfg = lp.SolverConfig(tol=1e-9)
        c1 = lp.block_sandwich_bounds(
            lp.BlockChannelSpec(spec, lp.InputGrid.uniform(40.0, 5), r=1), cfg)
        c2 = lp.block_sandwich_bounds(
            lp.BlockChannelSpec(scaled, lp.InputGrid.uniform(beta * 40.0, 5), r=1),
            cfg)
        assert abs(c1.upper - c2.upper) < 1e-8


class TestDiscreteChannelInvariants:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            lp.DiscreteChannel(np.array([[0.5, 0.4]]), np.array([0.0]), (0,))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            lp.DiscreteChannel(np.array([[1.1, -0.1]]), np.array([0.0]), (0,))

    def test_rejects_cost_mismatch(self):
        with pytest.raises(ValueError):
            lp.DiscreteChannel(np.eye(2), np.array([0.0]), (0, 1))

    def test_immutable(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1))
        with pytest.raises(ValueError):
            ch.transition[0, 0] = 0.5


class TestInstanceFiles:
    def test_roundtrip(self, tmp_path):
        doc = {"impulse": [0.7, 0.3], "lambda0": 5.0, "amax": 40.0,
               "alpha": 5.0, "grid_points": 5, "tail_eps": 1e-10}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        spec, m, tail = lp.load_instance(path)
        assert spec.impulse.taps == (0.7, 0.3)
        assert (spec.lambda0, spec.amax, spec.alpha) == (5.0, 40.0, 5.0)
        assert m == 5 and tail == 1e-10

    def test_defaults_applied(self):
        spec, m, tail = parse_instance(
            '{"impulse": [1.0], "lambda0": 1.0, "amax": 2.0, "alpha": 1.0}')
        assert m == 9 and tail == 1e-10

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_instance('{"impulse": [1.0], "lambda0": 1.0, "amax": 2.0, '
                           '"alpha": 1.0, "extra": 3}')

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_instance('{"impulse": [1.0]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_instance("not json")
