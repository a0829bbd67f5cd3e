"""Blahut-Arimoto solver: closed forms, constraints, brute-force oracle."""
import math

import numpy as np
import pytest

import ltipc as lp

from helpers import bsc, grid_search_capacity, small_corpus


def h2_bits(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


@pytest.fixture(scope="module")
def poisson9():
    spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
    return lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 9))


class TestMutualInformation:
    def test_identity_uniform(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1), (0, 1))
        assert abs(lp.mutual_information(ch, [0.5, 0.5]) - math.log(2)) < 1e-12

    def test_point_mass_gives_zero(self, poisson9):
        p = np.zeros(9)
        p[3] = 1.0
        assert lp.mutual_information(poisson9, p) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_closed_form(self):
        expected = math.log(2) * (1 - h2_bits(0.11))
        got = lp.mutual_information(bsc(0.11), [0.5, 0.5])
        assert abs(got - expected) < 1e-12

    def test_dimension_mismatch(self, poisson9):
        with pytest.raises(ValueError):
            lp.mutual_information(poisson9, [0.5, 0.5])

    def test_unnormalized_rejected(self, poisson9):
        with pytest.raises(ValueError):
            lp.mutual_information(poisson9, np.full(9, 0.2))


class TestBaCapacity:
    def test_identity_channel(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1), (0, 1))
        res = lp.ba_capacity(ch)
        assert abs(res.value - math.log(2)) < 1e-9

    def test_zero_capacity_channel(self):
        row = np.array([0.2, 0.5, 0.3])
        ch = lp.DiscreteChannel(np.tile(row, (3, 1)), np.arange(3.0),
                                (0, 1, 2), (0, 1, 2))
        res = lp.ba_capacity(ch, alpha=1.0)
        assert res.value < 1e-9
        assert res.achieved_cost <= 1.0 + 1e-9

    def test_poisson_constrained_below_symkl(self, poisson9):
        res = lp.ba_capacity(poisson9, alpha=5.0)
        assert 0.0 < res.value < math.log(9)
        assert res.value <= lp.poisson_sym_bound_closed_form(40.0, 5.0, 5.0)
        assert res.achieved_cost <= 5.0 + 1e-9

    def test_value_matches_returned_distribution(self, poisson9):
        cfg = lp.SolverConfig(tol=1e-9)
        for alpha in (None, 5.0, 20.0):
            res = lp.ba_capacity(poisson9, alpha=alpha, config=cfg)
            recomputed = lp.mutual_information(poisson9, res.input_dist)
            assert abs(recomputed - res.value) < 1e-9

    def test_running_objective_monotone(self, poisson9):
        res = lp.ba_capacity(poisson9)
        hist = np.asarray(res.history)
        assert np.all(np.diff(hist) >= -1e-12)

    def test_deterministic(self, poisson9):
        r1 = lp.ba_capacity(poisson9, alpha=5.0)
        r2 = lp.ba_capacity(poisson9, alpha=5.0)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.input_dist, r2.input_dist)

    def test_infeasible_alpha_rejected(self, poisson9):
        with pytest.raises(ValueError):
            lp.ba_capacity(poisson9, alpha=-1.0)

    def test_nonconvergence_diagnostic(self, poisson9):
        with pytest.raises(lp.ConvergenceError) as exc:
            lp.ba_capacity(poisson9, config=lp.SolverConfig(tol=1e-12, max_iters=3))
        assert exc.value.gap > 0

    def test_alpha_zero_only_zero_input(self, poisson9):
        res = lp.ba_capacity(poisson9, alpha=0.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.input_dist[0] == pytest.approx(1.0)
        assert res.iterations <= 1  # the cheapest input alone needs no search

    def test_constrained_law_meets_budget_exactly(self, poisson9):
        for alpha in (2.0, 5.0, 11.0):
            res = lp.ba_capacity(poisson9, alpha=alpha)
            assert res.achieved_cost <= alpha
            assert res.achieved_cost == float(res.input_dist @ poisson9.cost)

    def test_constrained_running_objective_monotone(self, poisson9):
        for alpha in (2.0, 5.0, 11.0):
            res = lp.ba_capacity(poisson9, alpha=alpha)
            hist = np.asarray(res.history)
            assert hist.size == res.iterations
            assert hist[-1] == pytest.approx(res.value, abs=1e-12)
            assert np.all(np.diff(hist) >= -1e-12)

    def test_duplicate_rows_merge_onto_cheapest(self):
        base = bsc(0.11)
        W = np.vstack([base.transition, base.transition[0]])
        ch = lp.DiscreteChannel(W, np.array([0.5, 1.0, 0.0]), (0, 1, 2), (0, 1))
        res = lp.ba_capacity(ch, alpha=0.5)
        cap = lp.ba_capacity(base).value
        assert res.input_dist[0] == 0.0
        assert res.value == pytest.approx(cap, abs=1e-9)
        assert res.achieved_cost <= 0.5


class TestBruteForceOracle:
    def test_matches_grid_search_unconstrained(self):
        for ch in small_corpus():
            ba = lp.ba_capacity(ch, config=lp.SolverConfig(tol=1e-10)).value
            oracle = grid_search_capacity(ch.transition, step=1e-3)
            assert abs(ba - oracle) < 2e-3

    def test_matches_grid_search_constrained(self):
        for ch in small_corpus():
            alpha = float(np.mean(ch.cost))
            ba = lp.ba_capacity(ch, alpha=alpha,
                                config=lp.SolverConfig(tol=1e-10)).value
            oracle = grid_search_capacity(ch.transition, step=1e-3,
                                          cost=ch.cost, alpha=alpha)
            assert abs(ba - oracle) < 2e-3

    def test_dual_gap_certifies_upper_bound(self):
        """value + gap bounds the grid-search optimum from above, budget or
        not, and the returned law meets the budget with no slack."""
        for ch in small_corpus():
            alpha = float(np.mean(ch.cost))
            for budget in (None, alpha):
                res = lp.ba_capacity(ch, alpha=budget,
                                     config=lp.SolverConfig(tol=1e-10))
                oracle = grid_search_capacity(ch.transition, step=1e-3,
                                              cost=ch.cost, alpha=budget)
                assert res.value + res.gap >= oracle - 2e-3
                if budget is not None:
                    assert res.achieved_cost <= budget


class TestCapacityCostCurve:
    def test_saturates_at_peak(self, poisson9):
        cfg = lp.SolverConfig(tol=1e-9)
        unconstrained = lp.ba_capacity(poisson9, config=cfg)
        res = lp.ba_capacity(poisson9, alpha=40.0, config=cfg)
        assert abs(res.value - unconstrained.value) < 1e-9

    def test_monotone_and_concave(self, poisson9):
        """Capacity-cost is concave non-decreasing; checked on a 5-point
        equally spaced sweep."""
        cfg = lp.SolverConfig(tol=1e-10)
        alphas = [4.0, 8.0, 12.0, 16.0, 20.0]
        values = [r.value for r in lp.capacity_cost_curve(poisson9, alphas, cfg)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)
        second = np.diff(diffs)
        assert np.all(second <= 1e-6)

    def test_shape_of_alpha_sweep(self, poisson9):
        """Non-decreasing then flat once the constraint goes slack."""
        cfg = lp.SolverConfig(tol=1e-9)
        alphas = [5.0, 10.0, 20.0, 30.0, 40.0]
        values = [r.value for r in lp.capacity_cost_curve(poisson9, alphas, cfg)]
        assert np.all(np.diff(values) >= -1e-9)
        assert values[-1] - values[-2] < 1e-6  # saturated well before the peak

    def test_alpha_zero(self, poisson9):
        res = lp.capacity_cost_curve(poisson9, [0.0])[0]
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unsorted(self, poisson9):
        with pytest.raises(ValueError):
            lp.capacity_cost_curve(poisson9, [5.0, 1.0])
