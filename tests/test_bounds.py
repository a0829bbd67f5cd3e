"""Bound families: sandwich, stationary, symmetrized-KL."""
import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

import ltipc as lp
from ltipc.bounds import (
    _cmi_value_grad,
    _project_feasible,
    _single_slot_channel,
    _StationaryPolytope,
    _stationarity_matrix,
    _sym_kl_matrix,
    _wlogw_rows,
)
from ltipc.channel import DEFAULT_TAIL_EPS

from helpers import (bsc, grid_search_symkl, random_block_set, random_channel,
                     random_stationary_set, seeded_stationary_set, symkl_ascent_per_start)

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

    def test_random_block_solves_end_by_second_polish(self):
        """Every instance of random_block_set at r = 1 is certified by BA
        iteration 17, the second Newton polish.  Instances 41 and 116 took
        65,537 and 16,385 iterations while the polish kept the budget row
        out whenever BA's multiplier was 0 at hand-over: it certified a law
        over the budget and discarded it."""
        for i, (spec, grid) in enumerate(random_block_set()):
            b = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1))
            assert b.gap <= 1e-9, i
            assert b.iterations <= 17, (i, b.iterations)
            assert b.lower <= b.upper, i


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

    # Memory order 2, where shift consistency binds on pairs of windows, not
    # just on single-input marginals.
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

    def test_lower_nonconvergence_names_its_phase(self):
        """The barrier's step cap reports the barrier weight it stopped at;
        the polytope is not priced before the point is centred to tol, so
        the gap is still inf."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 10.0)
        with pytest.raises(lp.ConvergenceError) as info:
            lp.stationary_lower_bound(spec, lp.InputGrid.uniform(40.0, 3),
                                      lp.SolverConfig(max_iters=3))
        msg = str(info.value)
        assert msg.startswith("stationary lower bound: log-barrier Newton stopped after 3 steps")
        assert re.search(r"at tau \d\.\de[+-]\d+ ", msg), msg
        assert info.value.iterations == 3
        assert info.value.gap == math.inf

    # (taps, lambda0, amax, alpha, grid points) and the upper bound that
    # pairwise Frank-Wolfe reached on each at gap 1e-9, as float.hex.
    PINNED_UPPER = {
        "grid4-alpha10": (((0.7, 0.3), 5.0, 40.0, 10.0, 4), "0x1.01eecd5666438p+0"),
        "grid4-alpha16": (((0.7, 0.3), 5.0, 40.0, 16.0, 4), "0x1.2205f55fd79c5p+0"),
        "grid4-alpha22": (((0.7, 0.3), 5.0, 40.0, 22.0, 4), "0x1.23cd15f59e268p+0"),
        "grid4-alpha30": (((0.7, 0.3), 5.0, 40.0, 30.0, 4), "0x1.23cd15f59e269p+0"),
        "grid5-alpha5": (((0.7, 0.3), 5.0, 40.0, 5.0, 5), "0x1.795556f41d01ep-1"),
        "grid5-alpha15": (((0.7, 0.3), 5.0, 40.0, 15.0, 5), "0x1.1fb346d6649b2p+0"),
        "k2-grid5-a": (((0.4509, 0.2527, 0.2964), 2.4616, 45.042, 7.8977, 5),
                       "0x1.0301e9c698282p+0"),
        "k2-grid5-b": (((0.3507, 0.1531, 0.4962), 4.7302, 54.523, 30.267, 5),
                       "0x1.4a8d8c5e6f6e8p+0"),
    }

    @pytest.mark.parametrize("name", list(PINNED_UPPER))
    def test_grid4_upper_converges(self, name):
        """The upper bound runs to the default gap tolerance, stays below
        C_1 and matches the value pairwise Frank-Wolfe reached within 1e-12;
        the two k = 2 instances took Frank-Wolfe 15,000 and 56,000
        iterations."""
        (taps, lam0, amax, alpha, m), pinned = self.PINNED_UPPER[name]
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), lam0, amax, alpha)
        grid = lp.InputGrid.uniform(amax, m)
        up = lp.stationary_upper_bound(spec, grid)
        c1 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1), CFG)
        assert up.fw_gap <= 1e-9
        assert up.upper <= c1.upper + 1e-6
        assert abs(up.upper - float.fromhex(pinned)) <= 1e-12

    # The lower bound's value as float.hex, from pairwise Frank-Wolfe, on the
    # alpha-sweep benchmark instance (taps 0.7/0.3, lambda0 5, amax 40,
    # grid 3) and on A05's alpha-15 instance (grid 5, tol 1e-7).
    PINNED_LOWER = {
        "sweep-0.1": ((0.1 * 40.0, 3, lp.SolverConfig()), "0x1.e6e20370a0460p-2"),
        "sweep-0.25": ((0.25 * 40.0, 3, lp.SolverConfig()), "0x1.8604d1d69f512p-1"),
        "sweep-0.55": ((0.55 * 40.0, 3, lp.SolverConfig()), "0x1.bcc64582c8adcp-1"),
        "a05-alpha15": ((15.0, 5, FW_CFG), "0x1.c1d0c165e69cap-1"),
    }

    @pytest.mark.parametrize("name", list(PINNED_LOWER))
    def test_lower_side_unchanged(self, name):
        """The lower side of stationary_bounds certifies its gap and is no
        lower than the pinned value, less the tolerance."""
        (alpha, m, config), value_hex = self.PINNED_LOWER[name]
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, alpha)
        both = lp.stationary_bounds(spec, lp.InputGrid.uniform(40.0, m), config)
        assert both.lower >= float.fromhex(value_hex) - config.tol
        assert both.fw_gap <= config.tol

    @pytest.mark.parametrize("name", [name for name in PINNED_LOWER if name.startswith("sweep")])
    def test_sweep_lower_newton_steps(self, name):
        """The alpha-sweep instances take at most 40 Newton steps each: tau
        is cut once the point is centred to within tau, and the polytope is
        priced only once it is centred to tol.  Cutting tau only at the
        priced centre took 52, 53 and 17."""
        (alpha, m, config), _ = self.PINNED_LOWER[name]
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, alpha)
        lo = lp.stationary_lower_bound(spec, lp.InputGrid.uniform(40.0, m), config)
        assert lo.iterations <= 40

    def test_seeded_upper_bounds(self):
        """All 24 instances of the seeded set converge, among them instance
        11 (k = 2, grid 4), which Frank-Wolfe could not solve in 200,000
        iterations.  Each law is a stationary pmf within budget whose mutual
        information is the reported value."""
        for i, (spec, grid) in enumerate(seeded_stationary_set()):
            up = lp.stationary_upper_bound(spec, grid)
            ch = _single_slot_channel(spec, grid, DEFAULT_TAIL_EPS)
            p, k, m = up.upper_dist, spec.impulse.order, len(grid.points)
            assert up.fw_gap <= 1e-9, i
            assert abs(lp.mutual_information(ch, p) - up.upper) <= 1e-12, i
            assert np.abs(_stationarity_matrix(m, k) @ p).max() <= 1e-12, i
            assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12, i
            assert p @ ch.cost <= spec.alpha, i

    # The lower bound pairwise Frank-Wolfe reached on each seeded instance,
    # as float.hex; it raised on instance 11.
    SEEDED_LOWER = [
        "0x1.c16be81f3053ep-1", "0x1.4a54820219eadp-1", "0x1.a462ad0011dccp-1",
        "0x1.cc6b5d44fbe5cp-1", "0x1.454fb097b04c6p-1", "0x1.75673ab73a0c4p-1",
        "0x1.ece2e495fd680p-1", "0x1.5320ea320b82dp-1", "0x1.c610955cf2d9cp-2",
        "0x1.053823d7edb93p+0", "0x1.2462828e2bd40p-1", None,
        "0x1.c5bb048dad563p-1", "0x1.db2f07f56621ep-1", "0x1.588b7fef8345cp-1",
        "0x1.ec0bc7ea7ecf0p-1", "0x1.77afc1d1eafccp-2", "0x1.037e928e03f04p-1",
        "0x1.0206e3e024c17p+0", "0x1.a01bd03085ed2p-2", "0x1.18b91d8434334p-3",
        "0x1.1d61010a46707p+0", "0x1.9fb8431983c80p-5", "0x1.956a147bfdcf4p-1",
    ]

    def test_seeded_lower_bounds(self):
        """All 24 instances of the seeded set converge, instance 11 among
        them.  Each law is a strictly positive stationary pmf within budget,
        its value is below the upper bound and no lower than Frank-Wolfe's,
        less the tolerance."""
        for i, (spec, grid) in enumerate(seeded_stationary_set()):
            both = lp.stationary_bounds(spec, grid)
            ch = _single_slot_channel(spec, grid, DEFAULT_TAIL_EPS)
            p, k, m = both.lower_dist, spec.impulse.order, len(grid.points)
            assert both.fw_gap <= 1e-9, i
            assert np.abs(_stationarity_matrix(m, k) @ p).max() <= 1e-12, i
            assert p.min() > 0.0 and abs(p.sum() - 1.0) <= 1e-12, i
            assert p @ ch.cost <= spec.alpha, i
            # k = 0 makes both the same problem, each solved to within its gap.
            assert both.lower <= both.upper + both.fw_gap, i
            if self.SEEDED_LOWER[i] is not None:
                assert both.lower >= float.fromhex(self.SEEDED_LOWER[i]) - 1e-9, i

    def test_random_lower_bounds(self):
        """Every instance of random_stationary_set, a quarter of them at
        alpha = amax and a quarter at alpha = 1e-6 * amax, converges to a
        law that is strictly positive (but at alpha = 0, where the all-zero
        window is the only law), stationary and within budget."""
        for i, (spec, grid) in enumerate(random_stationary_set()):
            try:
                lo = lp.stationary_lower_bound(spec, grid)
            except lp.ConvergenceError as e:
                pytest.fail(f"instance {i}: {e}")
            ch = _single_slot_channel(spec, grid, DEFAULT_TAIL_EPS)
            p, k, m = lo.lower_dist, spec.impulse.order, len(grid.points)
            assert lo.fw_gap <= 1e-9, i
            assert p.min() > 0.0 or spec.alpha == 0.0, i
            assert np.abs(_stationarity_matrix(m, k) @ p).max() <= 1e-12, i
            assert abs(p.sum() - 1.0) <= 1e-12, i
            assert p @ ch.cost <= spec.alpha, i

    def test_lower_above_frank_wolfe_stop(self):
        """Pairwise Frank-Wolfe emptied 13 prefix groups here and stopped
        after 3 iterations at 0.2332358, 7.5e-3 nats below the optimum."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.4119, 0.2284, 0.3596)),
                              2.5413, 53.678, 1.7714)
        lo = lp.stationary_lower_bound(spec, lp.InputGrid.uniform(53.678, 4))
        assert lo.lower >= 0.2406904
        assert lo.fw_gap <= 1e-9

    # (taps, lambda0, amax, alpha, grid points) that were hard for pairwise
    # Frank-Wolfe: a stall with every prefix group alive, a group dying near
    # iteration 90, line searches returning 0 from rounding, groups dying at
    # the first step, budgets so small that every group but the all-zero
    # one starts near zero, and a group whose mass decayed over 16,000
    # iterations.  The last two stalled the log-barrier method once tau
    # reached its floor: a Newton step of decrement below 1e-17 failed the
    # line search's slope test on rounding alone.
    HARD_LOWER = {
        "alpha22-grid3": ((0.7, 0.3), 5.0, 40.0, 22.0, 3),
        "k2-group-dying-late": ((0.4, 0.4, 0.2), 2.0, 50.0, 5.0, 3),
        "k2-zero-step": ((0.5, 0.3, 0.2), 2.0, 30.0, 3.0, 3),
        "group-dies-first-step": ((0.6, 0.4), 4.0, 10.0, 1.0, 3),
        "tiny-budget-k1": ((0.7, 0.3), 2.0, 10.0, 1e-8, 3),
        "tiny-budget-k2": ((0.5, 0.3, 0.2), 2.0, 10.0, 1e-8, 3),
        "slow-group-decay": ((0.7, 0.3), 1.0, 20.0, 10.0, 4),
        "alpha-amax-grid3": ((0.7, 0.3), 5.0, 40.0, 40.0, 3),
        "memoryless-slack-grid5": ((1.0,), 4.2137, 70.4607, 41.5923, 5),
    }

    @pytest.mark.parametrize("name", list(HARD_LOWER))
    def test_lower_converges(self, name):
        """Each converges to fw_gap <= 1e-9, with 0 < lower <= upper."""
        taps, lam0, amax, alpha, m = self.HARD_LOWER[name]
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), lam0, amax, alpha)
        grid = lp.InputGrid.uniform(amax, m)
        lo = lp.stationary_lower_bound(spec, grid)
        assert lo.fw_gap <= 1e-9
        assert 0.0 < lo.lower <= lp.stationary_upper_bound(spec, grid).upper + 1e-12

    def test_lower_budget_counts_newton_arrays(self, monkeypatch):
        """The KKT matrix of the Newton step and the copy that the solve
        factors are alive at once: a budget that holds one but not two is
        refused, naming --grid, and leaves the upper bound alone.  The
        single-slot channel, 9 x 39 entries, is checked against the same
        budget and fits it."""
        m, k = 3, 1
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.5, 0.5)), 1.0, 10.0, 2.5)
        grid = lp.InputGrid.uniform(10.0, m)
        size = m ** (k + 1) + m ** k + 2  # windows, budget slack, multipliers
        monkeypatch.setattr(lp.channel, "DEFAULT_ENTRY_BUDGET", 2 * size * size - 1)
        with pytest.raises(lp.BudgetExceededError, match=f"two {size} x {size} .*--grid"):
            lp.stationary_lower_bound(spec, grid)
        lp.stationary_upper_bound(spec, grid)
        monkeypatch.setattr(lp.channel, "DEFAULT_ENTRY_BUDGET", 2 * size * size)
        lp.stationary_lower_bound(spec, grid)

    def test_upper_master_failure_reports_polytope_gap(self):
        """Seeded instance 20 at tol 1e-14: the first master solve converges
        in one step and the second stalls near a dual gap of 1.08e-14.  The
        error names the master solve and carries the gap priced over the
        polytope after the first, not the master's own, and the master
        iterations in all."""
        spec, grid = seeded_stationary_set()[20]
        config = lp.SolverConfig(tol=1e-14, max_iters=50)
        with pytest.raises(lp.ConvergenceError, match="master solve 2") as err:
            lp.stationary_upper_bound(spec, grid, config)
        assert err.value.iterations == 1 + config.max_iters
        assert 1e-12 < err.value.gap < math.inf

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


class TestCycleOracle:
    """_StationaryPolytope.lp_max against HiGHS on the same linear program;
    the cycles it returns name the returned law exactly."""

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
            g = rng.normal(size=n)
            cycles, p = poly.lp_max(g)
            cycles_again, p_again = poly.lp_max(g)
            assert cycles_again == cycles
            assert p_again.tobytes() == p.tobytes()
            assert len(cycles) in (1, 2) and all(list(C) == sorted(C) for C in cycles)
            assert set(np.flatnonzero(p)) <= {t for C in cycles for t in C}
            ref = linprog(-g, A_eq=A_eq, b_eq=b_eq, A_ub=cost[None], b_ub=[alpha],
                          bounds=(0, None), method="highs")
            assert ref.success
            assert abs(g @ p + ref.fun) <= 1e-9
            assert np.abs(S @ p).max(initial=0.0) <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= 0.0 and cost @ p <= alpha + 1e-12

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_step_guard_is_a_convergence_error(self, side, monkeypatch):
        """With no Newton step on the budget multiplier allowed, a binding
        budget trips the guard; each bound reports it as a ConvergenceError
        that names its side."""
        monkeypatch.setattr(lp.bounds, "_CYCLE_STEPS", 0)
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 4.0)
        bound = {"upper": lp.stationary_upper_bound, "lower": lp.stationary_lower_bound}[side]
        with pytest.raises(lp.ConvergenceError, match=f"stationary {side} bound: cycle oracle"
                           ) as err:
            bound(spec, lp.InputGrid.uniform(40.0, 3))
        assert err.value.gap == math.inf and err.value.iterations == 0

    def test_budget_counts_both_tables(self, monkeypatch):
        """Karp's D (float64) and pred (intp) tables are alive at once: a
        budget that holds one (V+1) x V table but not two is refused."""
        m, k = 3, 1
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.5, 0.5)), 5.0, 40.0, 10.0)
        cost = _single_slot_channel(spec, lp.InputGrid.uniform(40.0, m), 1e-10).cost
        V = m ** k
        one_table = (V + 1) * V  # float64 entries
        monkeypatch.setattr(lp.channel, "DEFAULT_ENTRY_BUDGET", one_table)
        with pytest.raises(lp.BudgetExceededError, match="two 4 x 3 tables"):
            _StationaryPolytope(cost, m, k, 10.0)
        monkeypatch.setattr(lp.channel, "DEFAULT_ENTRY_BUDGET", 2 * one_table)
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


class TestSymKlMatrix:
    @pytest.mark.parametrize("taps, m, r", [((0.7, 0.3), 9, 1), ((0.5, 0.3, 0.2), 5, 1),
                                            ((0.7, 0.3), 3, 2)])
    def test_block_channel_exponential_family_form(self, taps, m, r):
        """On a common support each slot's truncated Poisson row has
        log W(y) = y log lam - log y! - A(lam), so the pair's divergence is
        sum over slots of (mu - mu')(log lam - log lam'), mu the truncated
        mean."""
        spec = lp.ChannelSpec(lp.ImpulseResponse(taps), 5.0, 40.0, 40.0)
        ch = lp.build_block_channel(lp.BlockChannelSpec(spec, lp.InputGrid.uniform(40.0, m), r=r))
        W = ch.transition
        side = round(W.shape[1] ** (1.0 / r))
        assert side ** r == W.shape[1]
        counts = np.arange(side)
        slots = W.reshape((-1,) + (side,) * r)
        k = len(taps) - 1
        tuples = np.array(ch.input_labels)
        expected = np.zeros((W.shape[0],) * 2)
        for s in range(r):
            mu = slots.sum(axis=tuple(a for a in range(1, r + 1) if a != s + 1)) @ counts
            log_lam = np.log(5.0 + tuples[:, s: s + k + 1] @ np.array(taps[::-1]))
            expected += (mu[:, None] - mu[None, :]) * (log_lam[:, None] - log_lam[None, :])
        D = _sym_kl_matrix(W)
        assert np.abs(D - expected).max() <= 1e-12 * D.max()


class TestSymKlGeneric:
    def test_identical_rows_give_zero(self):
        row = np.array([0.2, 0.5, 0.3])
        ch = lp.DiscreteChannel(np.tile(row, (2, 1)), np.zeros(2), (0, 1))
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
        ch = lp.DiscreteChannel(W, np.zeros(2), (0, 1))
        assert math.isinf(lp.sym_kl_generic(ch, [0.5, 0.5]))

    def test_accepts_pmfs_at_their_tolerance(self):
        """Rows and law each 0.9e-9 above a sum of 1, as the checks allow:
        the output marginal sums to 1 + 1.8e-9, and the value stays finite."""
        W = np.array([[0.3, 0.7 + 0.9e-9], [0.6, 0.4 + 0.9e-9]])
        ch = lp.DiscreteChannel(W, np.zeros(2), (0, 1))
        exact = lp.DiscreteChannel(W / W.sum(axis=1, keepdims=True), np.zeros(2), (0, 1))
        got = lp.sym_kl_generic(ch, [0.5, 0.5 + 0.9e-9])
        assert abs(got - lp.sym_kl_generic(exact, [0.5, 0.5])) < 1e-8

    def test_bsc_closed_form_in_bits(self):
        p = 0.11
        got_bits = lp.sym_kl_generic(bsc(p), [0.5, 0.5]) / math.log(2)
        expected = -math.log2(math.sqrt(p * (1 - p))) - (
            -(p * math.log2(p) + (1 - p) * math.log2(1 - p)))
        assert abs(got_bits - expected) < 1e-12


class TestSymKlMax:
    def test_zero_capacity_channel(self):
        row = np.array([0.3, 0.7])
        ch = lp.DiscreteChannel(np.tile(row, (3, 1)), np.arange(3.0), (0, 1, 2))
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
            prod = lp.DiscreteChannel(W, np.zeros(4), tuple(range(4)))
            total = lp.sym_kl_max(ch1).value + lp.sym_kl_max(ch2).value
            assert abs(lp.sym_kl_max(prod).value - total) < 1e-6

    def test_infinite_on_support_mismatch(self):
        W = np.array([[1.0, 0.0], [0.5, 0.5]])
        ch = lp.DiscreteChannel(W, np.zeros(2), (0, 1))
        res = lp.sym_kl_max(ch)
        assert math.isinf(res.value)

    # Rows 0 and 1 share a support; row 2 has a zero where they do not.
    MISMATCH_W = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])

    def test_budget_at_cheapest_cost_drops_costlier_rows(self):
        """alpha = 0 keeps inputs 0 and 1 only; F = D_01 / 4 at (1/2, 1/2)."""
        ch = lp.DiscreteChannel(self.MISMATCH_W, np.array([0.0, 0.0, 5.0]),
                                (0, 1, 2))
        res = lp.sym_kl_max(ch, alpha=0.0)
        assert res.value == pytest.approx(0.15 * math.log(2.5), abs=1e-12)
        assert set(res.support) == {0, 1}

    @pytest.mark.parametrize("cost", [(0.0, 1.0, 5.0), (5.0, 5.0, 0.0)])
    def test_infinite_witness_meets_budget(self, cost):
        """The witness of F = inf meets the budget; the half/half law on a
        mismatched pair would cost 2.5 > alpha."""
        ch = lp.DiscreteChannel(self.MISMATCH_W, np.array(cost), (0, 1, 2))
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

    def test_batch_matches_per_start_ascent(self):
        """The batched ascent against its starts run one at a time, on random
        budgeted channels with tied costs and on alpha-sweep's channel (taps
        0.7/0.3, lambda0 5, amax 40, grid 3) at its three budgets.  Every
        other random case caps the ascent at 40 steps, so starts leave both
        at the cap and at their first non-rising step."""
        rng = np.random.default_rng(23)
        cases = []
        for trial in range(40):
            n = int(rng.integers(2, 10))
            cost = rng.integers(0, 4, n).astype(np.float64)
            ch = random_channel(rng, n, int(rng.integers(2, 6)), cost=cost)
            alpha = float(rng.uniform(cost.min(), cost.max()))
            cases.append((ch, alpha, trial, 40 if trial % 2 else CFG.max_iters))
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 4.0)
        sweep = lp.build_block_channel(
            lp.BlockChannelSpec(spec, lp.InputGrid.uniform(40.0, 3), r=1))
        cases += [(sweep, alpha, 0, CFG.max_iters) for alpha in (4.0, 10.0, 22.0)]
        beyond_pairs = 0
        for ch, alpha, seed, max_iters in cases:
            res = lp.sym_kl_max(ch, alpha, lp.SolverConfig(max_iters=max_iters), seed)
            assert abs(res.value - symkl_ascent_per_start(ch, alpha, seed, max_iters)) <= 1e-12
            beyond_pairs += len(res.support) > 2
        assert beyond_pairs >= 10  # the ascent, not the two-point law, decides

    def test_convex_in_channel_for_fixed_input(self):
        rng = np.random.default_rng(6)
        W1 = random_channel(rng, 3, 4).transition
        W2 = random_channel(rng, 3, 4).transition
        p = rng.dirichlet(np.ones(3))

        def F(W):
            ch = lp.DiscreteChannel(W, np.zeros(3), (0, 1, 2))
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


def _assert_exact_projection(v, p, cost, alpha):
    """Feasible, and (v - p).(z - p) <= 0 at every vertex z of the simplex
    cut by cost.p <= alpha: the feasible single inputs and the budget-tight
    pairs."""
    n = v.size
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


class TestProjectFeasible:
    def test_projection_is_exact(self):
        """Costs tie and alpha sits on a cost value."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 4, n).astype(np.float64)
            alpha = float(rng.choice(cost))
            v = 3.0 * rng.normal(size=n)
            _assert_exact_projection(v, _project_feasible(v, cost, alpha), cost, alpha)

    def test_batch_rows_match_single_projections(self):
        """300 random vectors in five n-groups, each projected as one array:
        every row is exact and equals its own 1-D projection bit for bit.
        Each group mixes rows whose plain simplex projection meets the budget
        (no search) with rows that take one Newton step and rows that take
        several, so rows leave the search at different steps."""
        rng = np.random.default_rng(12)
        for n in range(2, 7):
            cost = ((np.arange(n) + 1) // 2).astype(np.float64)  # ties from n = 3
            alpha = 0.5 * cost.max()  # on a cost value for n = 4, 5
            V = 3.0 * rng.normal(size=(60, n))
            P = _project_feasible(V, cost, alpha)
            plain = _project_feasible(V, cost, math.inf)
            searched = plain @ cost > alpha
            assert 0 < searched.sum() < len(V)
            for v, p in zip(V, P):
                _assert_exact_projection(v, p, cost, alpha)
                assert np.array_equal(p, _project_feasible(v, cost, alpha))


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
        ch = lp.DiscreteChannel(np.tile(row, (2, 1)), np.zeros(2), (0, 1))
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
        ch = lp.DiscreteChannel(np.array([[0.5, 0.5]]), np.zeros(1), (0,))
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
                                     tuple(range(len(uniq))))
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
