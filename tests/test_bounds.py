"""Bound families: sandwich, stationary, symmetrized-KL."""
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

import ltipc as lp
from ltipc.bounds import (
    _cmi_value_grad,
    _frank_wolfe,
    _line_search,
    _project_feasible,
    _single_slot_channel,
    _StationaryPolytope,
    _stationarity_matrix,
    _wlogw_rows,
)

from helpers import bsc, grid_search_symkl, random_channel

CFG = lp.SolverConfig(tol=1e-8)
FW_CFG = lp.SolverConfig(tol=1e-7, max_iters=20000)


def small_isi_spec(alpha=3.0):
    return lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 2.0, 10.0, alpha)


class TestSandwichBounds:
    def test_memoryless_lower_equals_upper(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 2.0, 10.0, 3.0)
        grid = lp.InputGrid.uniform(10.0, 4)
        for r in (1, 2):
            b = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=r), CFG)
            assert b.lower == pytest.approx(b.upper)  # r/(0+r) = 1

    def test_lower_is_fixed_fraction_of_upper(self):
        b = lp.block_sandwich_bounds(
            lp.BlockChannelSpec(small_isi_spec(), lp.InputGrid.uniform(10.0, 3), r=2),
            CFG)
        assert b.lower == b.upper * 2 / 3
        assert b.lower <= b.upper

    def test_r2_tightens_both_sides(self):
        """Upper decreases and lower increases from r=1 to r=2."""
        grid = lp.InputGrid.uniform(10.0, 3)
        spec = small_isi_spec()
        b1 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1), CFG)
        b2 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=2), CFG)
        assert b2.upper <= b1.upper + 1e-6
        assert b2.lower >= b1.lower - 1e-6
        assert b1.lower <= b2.upper + 1e-6  # both sandwich the same capacity

    def test_gap_shrinks_with_noise(self):
        """Fig.-4 behavior: the sandwich gap narrows as background grows."""
        grid = lp.InputGrid.uniform(10.0, 3)
        gaps = []
        for lam0 in (1.0, 5.0, 15.0):
            spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), lam0, 10.0, 3.0)
            b = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1), CFG)
            gaps.append(b.upper - b.lower)
        assert gaps[0] > gaps[1] > gaps[2]


@pytest.fixture(scope="module")
def small_isi_bounds():
    """Both stationary bounds of the small-ISI instance on grid 3."""
    return lp.stationary_bounds(small_isi_spec(), lp.InputGrid.uniform(10.0, 3), FW_CFG)


class TestStationaryBounds:
    def test_k0_reduces_to_ba(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 2.0, 10.0, 3.0)
        grid = lp.InputGrid.uniform(10.0, 4)
        ch = lp.build_memoryless_channel(spec, grid)
        cap = lp.ba_capacity(ch, alpha=3.0, config=lp.SolverConfig(tol=1e-10)).value
        up = lp.stationary_upper_bound(spec, grid, FW_CFG)
        lo = lp.stationary_lower_bound(spec, grid, FW_CFG)
        assert abs(up.upper - cap) < 1e-6
        assert abs(lo.lower - cap) < 1e-6

    def test_upper_below_c1(self):
        spec = small_isi_spec()
        grid = lp.InputGrid.uniform(10.0, 3)
        up = lp.stationary_upper_bound(spec, grid, FW_CFG)
        c1 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1), CFG)
        assert up.upper <= c1.upper + 1e-6

    def test_lower_below_upper(self, small_isi_bounds):
        assert small_isi_bounds.lower <= small_isi_bounds.upper + 1e-6

    def test_laws_are_read_only(self, small_isi_bounds):
        """Like every other result's arrays, the returned laws are frozen."""
        for dist in (small_isi_bounds.upper_dist, small_isi_bounds.lower_dist):
            assert not dist.flags.writeable
            with pytest.raises(ValueError):
                dist[0] = 0.0

    def test_feasible_point_below_maximum(self):
        """Any equal-marginal product law is feasible, so its objective
        cannot beat the returned maximum."""
        spec = small_isi_spec()
        grid = lp.InputGrid.uniform(10.0, 3)
        up = lp.stationary_upper_bound(spec, grid, FW_CFG)
        ch = _single_slot_channel(spec, grid, 1e-10)
        mu = np.array([0.6, 0.2, 0.2])  # mean 0.2*5 + 0.2*10 = 3 <= alpha
        joint = np.kron(mu, mu)
        val = lp.mutual_information(ch, joint)
        assert val <= up.upper + 1e-6

    # Memory order 2, where the lower bound restricts its support; a restart
    # from the uniform law on the surviving windows was not shift-consistent.
    K2_INSTANCES = [((0.4, 0.35, 0.25), 1.0, 30.0, 12.0),
                    ((0.5, 0.3, 0.2), 1.0, 20.0, 2.0)]

    def test_certificates_satisfy_constraints(self, small_isi_bounds):
        spec = small_isi_spec()
        grid = lp.InputGrid.uniform(10.0, 3)
        cost = _single_slot_channel(spec, grid, 1e-10).cost
        poly = _StationaryPolytope(cost, 3, 1, spec.alpha)
        for dist in (small_isi_bounds.upper_dist, small_isi_bounds.lower_dist):
            P = dist.reshape(3, 3)
            np.testing.assert_allclose(P.sum(axis=1), P.sum(axis=0), atol=1e-8)
            assert dist @ poly.cost <= spec.alpha + 1e-8
            assert abs(dist.sum() - 1.0) < 1e-9
        for taps, lam0, amax, alpha in self.K2_INSTANCES:
            spec = lp.ChannelSpec(lp.ImpulseResponse(taps), lam0, amax, alpha)
            grid = lp.InputGrid.uniform(amax, 3)
            dist = lp.stationary_lower_bound(spec, grid).lower_dist
            cost = _single_slot_channel(spec, grid, 1e-10).cost
            assert np.abs(_stationarity_matrix(3, 2) @ dist).max() <= 1e-9
            assert abs(dist.sum() - 1.0) <= 1e-9
            assert dist @ cost <= alpha + 1e-9

    def test_nonconvergence_diagnostic(self):
        spec = small_isi_spec()
        grid = lp.InputGrid.uniform(10.0, 3)
        with pytest.raises(lp.ConvergenceError):
            lp.stationary_upper_bound(spec, grid,
                                      lp.SolverConfig(tol=1e-12, max_iters=3))

    def test_grid4_upper_converges(self):
        """The upper bound has no stall exit: on grid 4 at alpha 10 it runs
        to the default gap tolerance and stays below C_1."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 10.0)
        grid = lp.InputGrid.uniform(40.0, 4)
        up = lp.stationary_upper_bound(spec, grid)
        c1 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1), CFG)
        assert up.fw_gap <= 1e-9
        assert up.upper <= c1.upper + 1e-6

    def test_lower_stall_without_dead_group_resumes(self):
        """At alpha 22 on grid 3 the lower bound gains under 1e-12 over 80
        iterations at gap 7e-9 with every prefix group alive: slow progress
        on a smooth objective, which still converges."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 22.0)
        lo = lp.stationary_lower_bound(spec, lp.InputGrid.uniform(40.0, 3))
        assert -1e-12 <= lo.fw_gap <= 1e-9

    def test_lower_group_dying_late_is_dropped(self):
        """Memory order 2: a prefix group dies near iteration 90.  Dropped
        as it dies, the run converges in a few hundred iterations; a loop
        that noticed it only after an 80-iteration stall window ran to
        max_iters."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.4, 0.4, 0.2)), 2.0, 50.0, 5.0)
        lo = lp.stationary_lower_bound(spec, lp.InputGrid.uniform(50.0, 3),
                                       lp.SolverConfig(max_iters=5000))
        assert lo.fw_gap <= 1e-9

    def test_lower_zero_step_drops_vertex(self):
        """Memory order 2 with every group alive: from about iteration 720
        rounding makes the line search return t = 0 at gaps near 1e-8.  A
        drop step moves the away vertex's whole weight, so the run
        converges instead of repeating the same step."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.5, 0.3, 0.2)), 2.0, 30.0, 3.0)
        lo = lp.stationary_lower_bound(spec, lp.InputGrid.uniform(30.0, 3),
                                       lp.SolverConfig(max_iters=5000))
        assert lo.fw_gap <= 1e-9

    @pytest.mark.parametrize("taps", [(0.7, 0.3), (0.5, 0.3, 0.2)])
    def test_lower_tiny_budget(self, taps):
        """At alpha 1e-8 every prefix group but the all-zero one starts below
        the group-kill threshold, and the interior start is the only vertex;
        the bound still converges, without dropping the groups it needs."""
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), 2.0, 10.0, 1e-8)
        grid = lp.InputGrid.uniform(10.0, 3)
        lo = lp.stationary_lower_bound(spec, grid)
        assert lo.fw_gap <= 1e-9
        assert 0.0 < lo.lower <= lp.stationary_upper_bound(spec, grid).upper + 1e-12

    @pytest.mark.parametrize("taps", [(1.0,), (0.7, 0.3), (0.5, 0.3, 0.2)])
    def test_both_bounds_match_separate_runs(self, taps):
        """One build for both bounds gives each bound's value, law, gap and
        iteration count bit for bit."""
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), 2.0, 20.0, 5.0)
        grid = lp.InputGrid.uniform(20.0, 3)
        both = lp.stationary_bounds(spec, grid)
        up = lp.stationary_upper_bound(spec, grid)
        lo = lp.stationary_lower_bound(spec, grid)
        assert both.upper.hex() == up.upper.hex()
        assert both.lower.hex() == lo.lower.hex()
        assert both.upper_dist.tobytes() == up.upper_dist.tobytes()
        assert both.lower_dist.tobytes() == lo.lower_dist.tobytes()
        assert both.fw_gap.hex() == max(up.fw_gap, lo.fw_gap).hex()
        assert both.iterations == up.iterations + lo.iterations

    def test_both_bounds_build_one_channel(self, monkeypatch):
        calls = []
        build = lp.bounds.build_block_channel
        monkeypatch.setattr(lp.bounds, "build_block_channel",
                            lambda bspec: calls.append(bspec) or build(bspec))
        lp.stationary_bounds(small_isi_spec(), lp.InputGrid.uniform(10.0, 3))
        assert len(calls) == 1

    def test_lower_run_leaves_polytope_unchanged(self):
        """The lower bound narrows its window mask as groups die, here at
        the first step; the polytope keeps no trace of it, so a full-mask
        query after the run returns what it returned before."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.6, 0.4)), 4.0, 10.0, 1.0)
        ch = _single_slot_channel(spec, lp.InputGrid.uniform(10.0, 3), 1e-10)
        poly = _StationaryPolytope(ch.cost, 3, 1, spec.alpha)
        every = np.ones(poly.n, dtype=bool)
        g = np.random.default_rng(7).normal(size=poly.n)
        key, law = poly.lp_max(g, every)
        Wr = ch.transition.reshape(3, 3, -1)
        _frank_wolfe(Wr, _wlogw_rows(ch.transition), poly, lp.SolverConfig())
        key_after, law_after = poly.lp_max(g, every)
        assert key_after == key
        assert law_after.tobytes() == law.tobytes()

    def test_lower_group_dropped_when_it_dies(self):
        """Here prefix groups die at the first step; dropped at once, the
        run converges within 10 iterations."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.6, 0.4)), 4.0, 10.0, 1.0)
        lo = lp.stationary_lower_bound(spec, lp.InputGrid.uniform(10.0, 3))
        assert lo.fw_gap <= 1e-9
        assert lo.iterations <= 10


class TestCycleOracle:
    """_StationaryPolytope.lp_max against HiGHS on the same linear program;
    its key names the returned law exactly."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_linprog(self, k, m):
        amax = 40.0
        taps = (0.5, 0.3, 0.2)[:k + 1]
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), 5.0, amax, amax)
        cost = _single_slot_channel(spec, lp.InputGrid.uniform(amax, m), 1e-10).cost
        n = cost.size
        S = _stationarity_matrix(m, k)
        A_eq = np.vstack([np.ones((1, n)), S])
        b_eq = np.r_[1.0, np.zeros(S.shape[0])]
        rng = np.random.default_rng(100 * k + m)
        for trial in range(12):
            alpha = (0.0, amax, rng.uniform(0.0, amax))[trial % 3]
            poly = _StationaryPolytope(cost, m, k, alpha)
            active = np.ones(n, dtype=bool)
            if trial >= 6:
                active = rng.random(n) < 0.6
                active[0] = True  # the all-zero window: a cost-0 cycle
            g = rng.normal(size=n)
            key, p = poly.lp_max(g, active)
            key_again, p_again = poly.lp_max(g, active)
            assert key_again == key
            assert p_again.tobytes() == p.tobytes()
            ref = linprog(-g, A_eq=A_eq, b_eq=b_eq, A_ub=cost[None], b_ub=[alpha],
                          bounds=[(0, None if a else 0) for a in active], method="highs")
            assert ref.success
            assert abs(g @ p + ref.fun) <= 1e-9
            assert np.abs(S @ p).max(initial=0.0) <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= 0.0 and cost @ p <= alpha + 1e-12
            assert not p[~active].any()

    def test_budget_counts_both_tables(self, monkeypatch):
        """Karp's D (float64) and pred (intp) tables are alive at once: a
        budget that holds one (V+1) x V table but not two is refused."""
        m, k = 3, 1
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.5, 0.5)), 5.0, 40.0, 10.0)
        cost = _single_slot_channel(spec, lp.InputGrid.uniform(40.0, m), 1e-10).cost
        V = m ** k
        one_table = (V + 1) * V  # float64 entries
        monkeypatch.setattr(lp.bounds, "DEFAULT_ENTRY_BUDGET", one_table)
        with pytest.raises(lp.BudgetExceededError, match="two 4 x 3 tables"):
            _StationaryPolytope(cost, m, k, 10.0)
        monkeypatch.setattr(lp.bounds, "DEFAULT_ENTRY_BUDGET", 2 * one_table)
        _StationaryPolytope(cost, m, k, 10.0)


class TestObjectiveGradients:
    def _random_polytope_interior(self, rng, m):
        M = rng.random((m, m)) + 0.05
        P = (M + M.T) / 2
        return (P / P.sum()).reshape(-1)

    def test_mi_gradient_finite_difference(self):
        """One prefix group: the objective is I(X; Y)."""
        spec = small_isi_spec(alpha=10.0)
        grid = lp.InputGrid.uniform(10.0, 3)
        ch = _single_slot_channel(spec, grid, 1e-10)
        W = ch.transition[None]
        d = _wlogw_rows(ch.transition)
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(5):
            p = self._random_polytope_interior(rng, 3)
            _, g = _cmi_value_grad(W, d, p)
            for i in range(p.size):
                e = np.zeros_like(p)
                e[i] = h
                fd = (_cmi_value_grad(W, d, p + e)[0]
                      - _cmi_value_grad(W, d, p - e)[0]) / (2 * h)
                assert abs(fd - g[i]) / max(abs(fd), 1e-9) < 1e-4

    def test_cmi_gradient_finite_difference(self):
        spec = small_isi_spec(alpha=10.0)
        grid = lp.InputGrid.uniform(10.0, 3)
        ch = _single_slot_channel(spec, grid, 1e-10)
        Wr = ch.transition.reshape(3, 3, ch.n_outputs)
        d = _wlogw_rows(ch.transition)
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(5):
            p = self._random_polytope_interior(rng, 3)
            _, g = _cmi_value_grad(Wr, d, p)
            for i in range(p.size):
                e = np.zeros_like(p)
                e[i] = h
                fd = (_cmi_value_grad(Wr, d, p + e)[0]
                      - _cmi_value_grad(Wr, d, p - e)[0]) / (2 * h)
                assert abs(fd - g[i]) / max(abs(fd), 1e-9) < 1e-4


class TestLineSearch:
    @pytest.mark.parametrize("n_groups", [1, 3])
    def test_beats_dense_grid(self, n_groups):
        """Pairwise directions d = s - v from p = (1 - w) r + w v, so that
        p + gamma d stays nonnegative up to gamma_max = w.  The search
        returns t on the segment from p to p + gamma_max d; gamma = t
        gamma_max lies in [0, gamma_max] and its value is at least the best
        of 1,001 evenly spaced gammas, minus 1e-12."""
        spec = small_isi_spec(alpha=10.0)
        ch = _single_slot_channel(spec, lp.InputGrid.uniform(10.0, 3), 1e-10)
        Wr = ch.transition.reshape(n_groups, 9 // n_groups, ch.n_outputs)
        w = _wlogw_rows(ch.transition)
        f = lambda x: _cmi_value_grad(Wr, w, x)[0]
        rng = np.random.default_rng(5)
        for trial in range(24):
            r = rng.random(9) + 0.05
            s, v = rng.dirichlet(np.ones(9), size=2)
            if trial % 2 and n_groups == 1:
                s, v = np.eye(9)[rng.integers(9, size=2)]
            elif trial % 2:
                # r leaves group u empty, and one of s, v is a law inside it,
                # the other a vertex outside: the step revives or empties u.
                u = rng.integers(3)
                r[3 * u:3 * u + 3] = 0.0
                s, v = np.zeros(9), np.eye(9)[(3 * u + 3 + rng.integers(6)) % 9]
                s[3 * u:3 * u + 3] = rng.dirichlet(np.ones(3))
                if trial % 4 == 3:
                    s, v = v, s
            r /= r.sum()
            gamma_max = rng.uniform(0.05, 1.0)
            p = (1.0 - gamma_max) * r + gamma_max * v
            d = s - v
            gamma = gamma_max * _line_search(Wr, w, p, p + gamma_max * d)
            assert 0.0 <= gamma <= gamma_max
            best = max(f(p + x * d) for x in np.linspace(0.0, gamma_max, 1001))
            assert f(p + gamma * d) >= best - 1e-12


class TestSymKlGeneric:
    def test_identical_rows_give_zero(self):
        row = np.array([0.2, 0.5, 0.3])
        ch = lp.DiscreteChannel(np.tile(row, (2, 1)), np.zeros(2), (0, 1), (0, 1, 2))
        assert lp.sym_kl_generic(ch, [0.4, 0.6]) == pytest.approx(0.0, abs=1e-12)

    def test_equals_sum_of_two_divergences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch = random_channel(rng, 3, 4)
            p = rng.dirichlet(np.ones(3))
            W = ch.transition
            q = p @ W
            joint = p[:, None] * W
            prod = p[:, None] * q[None, :]
            direct = float(np.sum(joint * np.log(joint / prod))
                           + np.sum(prod * np.log(prod / joint)))
            assert abs(lp.sym_kl_generic(ch, p) - direct) < 1e-9

    def test_dominates_mutual_information(self):
        """Strict dominance on 100 random pairs, equality only at I = 0."""
        rng = np.random.default_rng(4)
        for _ in range(100):
            ch = random_channel(rng, rng.integers(2, 5), rng.integers(2, 6))
            p = rng.dirichlet(np.ones(ch.n_inputs))
            dsym = lp.sym_kl_generic(ch, p)
            mi = lp.mutual_information(ch, p)
            assert dsym >= mi - 1e-12
            if mi > 1e-6:
                assert dsym > mi

    def test_infinite_on_support_mismatch(self):
        W = np.array([[1.0, 0.0], [0.5, 0.5]])
        ch = lp.DiscreteChannel(W, np.zeros(2), (0, 1), (0, 1))
        assert math.isinf(lp.sym_kl_generic(ch, [0.5, 0.5]))

    def test_bsc_closed_form_in_bits(self):
        p = 0.11
        got_bits = lp.sym_kl_generic(bsc(p), [0.5, 0.5]) / math.log(2)
        expected = -math.log2(math.sqrt(p * (1 - p))) - (
            -(p * math.log2(p) + (1 - p) * math.log2(1 - p)))
        assert abs(got_bits - expected) < 1e-12


class TestSymKlMax:
    def test_zero_capacity_channel(self):
        row = np.array([0.3, 0.7])
        ch = lp.DiscreteChannel(np.tile(row, (3, 1)), np.arange(3.0),
                                (0, 1, 2), (0, 1))
        res = lp.sym_kl_max(ch, alpha=1.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_bsc_maximum_at_uniform(self):
        p = 0.11
        res = lp.sym_kl_max(bsc(p))
        expected_bits = -math.log2(math.sqrt(p * (1 - p))) - (
            -(p * math.log2(p) + (1 - p) * math.log2(1 - p)))
        assert abs(res.value / math.log(2) - expected_bits) < 1e-9
        np.testing.assert_allclose(sorted(res.masses), [0.5, 0.5], atol=1e-9)

    def test_poisson_two_point_maximizer(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
        ch = lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 9))
        res = lp.sym_kl_max(ch, alpha=5.0)
        law = dict(zip(res.support, res.masses))
        assert set(law) == {0.0, 40.0}
        assert abs(law[40.0] - 0.125) < 1e-6
        closed = lp.poisson_sym_bound_closed_form(40.0, 5.0, 5.0)
        assert abs(res.value - closed) < 1e-6

    def test_product_channel_factorizes(self):
        rng = np.random.default_rng(5)
        pairs = [(bsc(0.11), bsc(0.25)),
                 (random_channel(rng, 2, 2), random_channel(rng, 2, 2))]
        for ch1, ch2 in pairs:
            W = np.kron(ch1.transition, ch2.transition)
            prod = lp.DiscreteChannel(W, np.zeros(4), tuple(range(4)),
                                      tuple(range(W.shape[1])))
            total = lp.sym_kl_max(ch1).value + lp.sym_kl_max(ch2).value
            assert abs(lp.sym_kl_max(prod).value - total) < 1e-6

    def test_infinite_on_support_mismatch(self):
        W = np.array([[1.0, 0.0], [0.5, 0.5]])
        ch = lp.DiscreteChannel(W, np.zeros(2), (0, 1), (0, 1))
        res = lp.sym_kl_max(ch)
        assert math.isinf(res.value)

    # Rows 0 and 1 share a support; row 2 has a zero where they do not.
    MISMATCH_W = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])

    def test_budget_at_cheapest_cost_drops_costlier_rows(self):
        """alpha = 0 keeps inputs 0 and 1 only; F = D_01 / 4 at (1/2, 1/2)."""
        ch = lp.DiscreteChannel(self.MISMATCH_W, np.array([0.0, 0.0, 5.0]),
                                (0, 1, 2), (0, 1, 2))
        res = lp.sym_kl_max(ch, alpha=0.0)
        assert res.value == pytest.approx(0.15 * math.log(2.5), abs=1e-12)
        assert set(res.support) == {0, 1}

    @pytest.mark.parametrize("cost", [(0.0, 1.0, 5.0), (5.0, 5.0, 0.0)])
    def test_infinite_witness_meets_budget(self, cost):
        """The witness of F = inf meets the budget; the half/half law on a
        mismatched pair would cost 2.5 > alpha."""
        ch = lp.DiscreteChannel(self.MISMATCH_W, np.array(cost), (0, 1, 2), (0, 1, 2))
        res = lp.sym_kl_max(ch, alpha=1.0)
        law = np.zeros(3)
        law[list(res.support)] = res.masses
        assert math.isinf(res.value)
        assert ch.cost @ law <= 1.0 + 1e-12
        assert math.isinf(lp.sym_kl_generic(ch, law))

    def test_reported_law_attains_value_within_budget(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(2, 4))
            cost = rng.integers(0, 4, n).astype(np.float64)
            ch = random_channel(rng, n, int(rng.integers(2, 5)), cost=cost)
            alpha = float(rng.choice(cost) if trial % 2 else rng.uniform(cost.min(), cost.max()))
            res = lp.sym_kl_max(ch, alpha=alpha)
            law = np.zeros(n)
            law[list(res.support)] = res.masses
            assert abs(lp.sym_kl_generic(ch, law) - res.value) < 1e-9
            assert cost @ law <= alpha + 1e-12
            assert res.value >= grid_search_symkl(ch.transition, 1e-2, cost, alpha) - 1e-9

    def test_convex_in_channel_for_fixed_input(self):
        rng = np.random.default_rng(6)
        W1 = random_channel(rng, 3, 4).transition
        W2 = random_channel(rng, 3, 4).transition
        p = rng.dirichlet(np.ones(3))

        def F(W):
            ch = lp.DiscreteChannel(W, np.zeros(3), (0, 1, 2), (0, 1, 2, 3))
            return lp.sym_kl_generic(ch, p)

        for t in (0.25, 0.5, 0.75):
            assert F(t * W1 + (1 - t) * W2) <= t * F(W1) + (1 - t) * F(W2) + 1e-12

    def test_jensen_route(self):
        """The cross term -sum_y q(y) sum_x p(x) log W(y|x) dominates H(Y)."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            ch = random_channel(rng, 4, 5)
            p = rng.dirichlet(np.ones(4))
            q = p @ ch.transition
            lhs = -float(q @ (p @ np.log(ch.transition)))
            assert lhs >= -float(q @ np.log(q)) - 1e-12


class TestProjectFeasible:
    def test_projection_is_exact(self):
        """Feasible, and (v - p).(z - p) <= 0 at every vertex z of the simplex
        cut by cost.p <= alpha: the feasible single inputs and the
        budget-tight pairs.  Costs tie and alpha sits on a cost value."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 4, n).astype(np.float64)
            alpha = float(rng.choice(cost))
            v = 3.0 * rng.normal(size=n)
            p = _project_feasible(v, cost, alpha)
            assert p.min() >= 0 and abs(p.sum() - 1.0) < 1e-12
            assert cost @ p <= alpha + 1e-12
            eye = np.eye(n)
            vertices = [eye[i] for i in range(n) if cost[i] <= alpha]
            for i, j in itertools.product(range(n), repeat=2):
                if cost[i] > alpha > cost[j]:
                    t = (alpha - cost[j]) / (cost[i] - cost[j])
                    vertices.append(t * eye[i] + (1.0 - t) * eye[j])
            for z in vertices:
                assert (v - p) @ (z - p) <= 1e-12


class TestPoissonClosedForms:
    def test_values(self):
        assert lp.poisson_sym_bound_closed_form(40.0, 5.0, 5.0) == pytest.approx(
            (5 / 40) * 35 * math.log(9), abs=1e-12)
        assert lp.poisson_sym_bound_closed_form(40.0, 20.0, 5.0) == pytest.approx(
            10 * math.log(9), abs=1e-12)
        assert lp.poisson_sym_bound_closed_form(40.0, 0.0, 5.0) == 0.0

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            lp.poisson_sym_bound_closed_form(40.0, 5.0, 0.0)

    def test_matches_two_point_numeric_oracle(self):
        """Numeric maximization of the covariance over two-point laws."""
        amax, lam0 = 40.0, 5.0
        for alpha in (5.0, 15.0, 20.0, 30.0):
            best = 0.0
            for x1 in np.linspace(0.0, amax, 201):
                for t in np.linspace(0.0, 1.0, 201):
                    mean = t * x1
                    if mean > alpha + 1e-12:
                        continue
                    best = max(best, lp.cov_bound_poisson(
                        [x1, 0.0], [t, 1 - t], lam0))
            closed = lp.poisson_sym_bound_closed_form(amax, alpha, lam0)
            assert closed >= best - 1e-9
            assert closed - best < 5e-3  # oracle grid resolution


class TestCovBound:
    def test_point_mass_is_zero(self):
        assert lp.cov_bound_poisson([7.0], [1.0], 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_equals_first_branch(self):
        val = lp.cov_bound_poisson([0.0, 40.0], [1 - 0.125, 0.125], 5.0)
        assert val == pytest.approx((5 / 40) * 35 * math.log(9), rel=1e-12)

    def test_nonnegative_on_random_laws(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = rng.integers(1, 6)
            support = rng.uniform(0, 50, size=n)
            masses = rng.dirichlet(np.ones(n))
            assert lp.cov_bound_poisson(support, masses, 2.0) >= -1e-12


class TestGaussianBound:
    def test_point_mass(self):
        assert lp.gaussian_sym_bound([3.0], [1.0], 1.0) == 0.0

    def test_mean_independent(self):
        v1 = lp.gaussian_sym_bound([0.0, 2.0], [0.5, 0.5], 1.5, mu=0.0)
        v2 = lp.gaussian_sym_bound([0.0, 2.0], [0.5, 0.5], 1.5, mu=7.0)
        assert v1 == v2

    def test_snr_at_power_limit(self):
        """Two-point symmetric law at +-sqrt(P) has Var P, bound P/sigma^2."""
        P, sigma = 4.0, 1.3
        s = math.sqrt(P)
        val = lp.gaussian_sym_bound([-s, s], [0.5, 0.5], sigma)
        assert val == pytest.approx(P / sigma ** 2, rel=1e-12)


class TestReferenceOutputBound:
    def test_true_marginal_recovers_generic(self):
        rng = np.random.default_rng(9)
        ch = random_channel(rng, 3, 4)
        p = rng.dirichlet(np.ones(3))
        q = p @ ch.transition
        assert abs(lp.sym_kl_reference_bound(ch, p, q)
                   - lp.sym_kl_generic(ch, p)) < 1e-12

    def test_identical_rows_with_common_row(self):
        row = np.array([0.25, 0.35, 0.4])
        ch = lp.DiscreteChannel(np.tile(row, (2, 1)), np.zeros(2), (0, 1), (0, 1, 2))
        assert lp.sym_kl_reference_bound(ch, [0.5, 0.5], row) == pytest.approx(
            0.0, abs=1e-12)

    def test_dominates_mutual_information(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            ch = random_channel(rng, 3, 4)
            p = rng.dirichlet(np.ones(3))
            r = rng.dirichlet(np.ones(4))
            assert lp.sym_kl_reference_bound(ch, p, r) >= \
                lp.mutual_information(ch, p) - 1e-12

    def test_infinite_on_support_mismatch(self):
        ch = lp.DiscreteChannel(np.array([[0.5, 0.5]]), np.zeros(1), (0,), (0, 1))
        assert math.isinf(lp.sym_kl_reference_bound(ch, [1.0], [1.0, 0.0]))


class TestIntensitySufficiency:
    def test_aggregated_statistic_preserves_mi(self):
        """I(window; count) equals I(filtered intensity; count) once tuples
        with equal intensity are merged: 50 random joint laws, k=1."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 2.0, 10.0, 10.0)
        grid = lp.InputGrid.uniform(10.0, 4)
        ch = _single_slot_channel(spec, grid, 1e-10)
        lam = np.array([2.0 + 0.7 * b + 0.3 * a for (a, b) in ch.input_labels])
        keys = np.round(lam, 9)
        uniq = np.unique(keys)
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.dirichlet(np.ones(ch.n_inputs))
            mi_full = lp.mutual_information(ch, p)
            agg_rows = []
            agg_p = []
            for u in uniq:
                mask = keys == u
                agg_p.append(p[mask].sum())
                agg_rows.append(ch.transition[mask][0])
            agg = lp.DiscreteChannel(np.array(agg_rows), np.zeros(len(uniq)),
                                     tuple(range(len(uniq))),
                                     ch.output_labels)
            mi_agg = lp.mutual_information(agg, np.array(agg_p))
            assert abs(mi_full - mi_agg) < 1e-9


class TestMaximizerCoincidence:
    def test_two_point_structure_at_high_noise(self):
        """With strong background noise and alpha below half the peak, the
        capacity-achieving law concentrates on {0, A} with mass alpha/A at A.
        At lambda0 = 50 the optimum still spreads over interior grid points;
        the coincidence emerges around lambda0 = 200 on the 9-point grid."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 200.0, 40.0, 5.0)
        ch = lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 9))
        res = lp.ba_capacity(ch, alpha=5.0, config=lp.SolverConfig(tol=1e-10))
        p = res.input_dist
        assert p[0] + p[-1] >= 0.99
        assert abs(p[-1] - 5.0 / 40.0) < 0.05
