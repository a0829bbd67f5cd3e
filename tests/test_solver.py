"""Blahut-Arimoto solver: closed forms, constraints, brute-force oracle."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import rel_entr

import ltipc as lp
from ltipc.channel import _block_factors
from ltipc.solver import _COST_WINDOW, _TINY, _multiplier, _SlotFactors, _tilt, _wlogw_rows

from helpers import bsc, grid_search_capacity, small_corpus


def h2_bits(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


@pytest.fixture(scope="module")
def poisson9():
    spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
    return lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 9))


class TestMutualInformation:
    def test_identity_uniform(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1))
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


# Every entry point that takes a pmf, called on the 2-input, 2-output BSC,
# and the two that take a support, with the law as the support.
_PMF_CALLS = {
    "mutual_information": lambda ch, law: lp.mutual_information(ch, law),
    "sym_kl_generic": lambda ch, law: lp.sym_kl_generic(ch, law),
    "sym_kl_reference_bound-input_dist":
        lambda ch, law: lp.sym_kl_reference_bound(ch, law, [0.5, 0.5]),
    "sym_kl_reference_bound-ref_out":
        lambda ch, law: lp.sym_kl_reference_bound(ch, [0.5, 0.5], law),
    "cov_bound_poisson": lambda ch, law: lp.cov_bound_poisson([0.0, 10.0], law, 2.0),
    "gaussian_sym_bound": lambda ch, law: lp.gaussian_sym_bound([0.0, 1.0], law, 1.0),
    "cov_bound_poisson-support":
        lambda ch, law: lp.cov_bound_poisson(law, [0.5, 0.5], 2.0),
    "gaussian_sym_bound-support":
        lambda ch, law: lp.gaussian_sym_bound(law, [0.5, 0.5], 1.0),
    "plugin_mi_estimate": lambda ch, law: lp.plugin_mi_estimate(ch, law, 40, seed=0),
}


@pytest.mark.parametrize("law", [[math.nan, 1.0], [math.inf, math.nan], [math.inf, 1.0]],
                         ids=["nan", "inf", "inf-alone"])
@pytest.mark.parametrize("entry", sorted(_PMF_CALLS))
def test_non_finite_law_rejected(entry, law):
    with pytest.raises(ValueError, match="non-finite"):
        _PMF_CALLS[entry](bsc(0.11), law)


class TestBaCapacity:
    def test_identity_channel(self):
        ch = lp.DiscreteChannel(np.eye(2), np.zeros(2), (0, 1))
        res = lp.ba_capacity(ch)
        assert abs(res.value - math.log(2)) < 1e-9

    def test_zero_capacity_channel(self):
        row = np.array([0.2, 0.5, 0.3])
        ch = lp.DiscreteChannel(np.tile(row, (3, 1)), np.arange(3.0), (0, 1, 2))
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

    def test_peak_memory_near_one_transition_matrix(self):
        """On a 16 x 59,319 on-off block channel (7.6 MB), a solve holds at
        most one more W-sized array at a time: its peak above what was live
        before the call stays under 1.5 W."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 1.0, 10.0, 5.0)
        ch = lp.build_block_channel(lp.BlockChannelSpec(spec, lp.InputGrid.uniform(10.0, 2), r=3))
        assert ch.transition.shape == (16, 59_319)
        assert _traced_peak(lambda: lp.ba_capacity(ch, alpha=5.0)) < 1.5 * ch.transition.nbytes

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

    @pytest.mark.parametrize("solve", [
        lambda ch: lp.ba_capacity(ch, alpha=math.nan),
        lambda ch: lp.sym_kl_max(ch, alpha=math.nan),
        lambda ch: lp.capacity_cost_curve(ch, [math.nan]),
    ], ids=["ba_capacity", "sym_kl_max", "capacity_cost_curve"])
    def test_nan_alpha_rejected(self, poisson9, solve):
        """A nan budget is an error, not a silently dropped constraint."""
        with pytest.raises(ValueError, match="alpha=nan is not a number"):
            solve(poisson9)

    def test_nonconvergence_diagnostic(self, poisson9):
        with pytest.raises(lp.ConvergenceError) as exc:
            lp.ba_capacity(poisson9, config=lp.SolverConfig(tol=1e-12, max_iters=3))
        assert exc.value.gap > 0

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            lp.SolverConfig(tol=tol)

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
        ch = lp.DiscreteChannel(W, np.array([0.5, 1.0, 0.0]), (0, 1, 2))
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


def _cost_variance(cost):
    """slope for _multiplier on tilts: −m′ of a tilt is its cost variance."""
    return lambda P, m: np.vecdot(P, (cost - m[:, None]) ** 2)


class TestMultiplier:
    """_multiplier on tilt laws, the family Blahut-Arimoto searches; the
    projection side is tested by test_bounds.py::TestProjectFeasible."""

    def test_batch_rows_match_one_law_searches(self):
        """240 random tilts in six n-groups with tied integer costs, each
        group searched as one batch from warm starts of 0 and above: every
        row equals its own one-law search bit for bit, meets the budget, lands
        in the window [alpha − w, alpha] when its multiplier is above 0, and
        has multiplier 0 exactly when its untilted law meets the budget."""
        rng = np.random.default_rng(30)
        searched = warmed = 0
        for n in range(3, 9):
            cost = (np.arange(n) // 2).astype(np.float64)  # ties in pairs
            alpha = float(rng.uniform(0.1, 0.6)) * cost.max()
            window = _COST_WINDOW * np.max(np.abs(cost))
            A = 3.0 * rng.normal(size=(40, n))
            warm = np.where(rng.random(40) < 0.5, 0.0, rng.uniform(0.1, 4.0, 40)).tolist()
            slope = _cost_variance(cost)
            s, P = _multiplier(
                lambda rows, t: np.array([_tilt(A[i], cost, x) for i, x in zip(rows, t)]),
                slope, cost, alpha, warm)
            assert len(s) == P.shape[0] == len(A)
            for a, t0, s_i, p in zip(A, warm, s, P):
                (s_one,), P_one = _multiplier(lambda _, t: _tilt(a, cost, t[0])[None],
                                              slope, cost, alpha, [t0])
                assert s_i == s_one and np.array_equal(p, P_one[0])
                assert p @ cost <= alpha
                assert (s_i == 0) == (_tilt(a, cost, 0.0) @ cost <= alpha)
                if s_i > 0:
                    assert p @ cost >= alpha - window
                    searched += 1
                    warmed += t0 > 0
        assert 0 < warmed < searched < 240

    def test_unreachable_budget_raises(self):
        """Below the cheapest cost no multiplier meets the budget: the search
        doubles to its step cap and raises."""
        cost = np.array([1.0, 2.0, 2.0])
        with pytest.raises(lp.ConvergenceError, match="no cost multiplier meets the budget"):
            _multiplier(lambda _, t: _tilt(np.zeros(3), cost, t[0])[None],
                        _cost_variance(cost), cost, 0.5, [0.0])


def _block_channel(taps, lambda0, amax, alpha, grid, r=1):
    spec = lp.ChannelSpec(lp.ImpulseResponse(taps), lambda0, amax, alpha)
    return lp.build_block_channel(
        lp.BlockChannelSpec(spec, lp.InputGrid.uniform(amax, grid), r=r))


class TestNewtonPolish:
    """Solves that plain Blahut-Arimoto finishes only at O(1/t): an optimal law
    with inputs of weight 0 and a slack budget."""

    @pytest.mark.parametrize("taps, lambda0, amax, alpha, grid", [
        ((0.65, 0.35), 8.0, 50.0, 30.0, 3),  # 46,966 plain BA iterations
        ((0.7, 0.3), 5.0, 40.0, 40.0, 9),    # beyond the 200k-iteration cap
    ], ids=["block-b3", "alpha-at-peak"])
    def test_certificate_recomputed_independently(self, taps, lambda0, amax, alpha, grid):
        """min over s >= 0 of g(s) = max_x (D_x - s*c_x) + s*alpha, recomputed
        from the returned law over every input, lies in [value, value + gap].
        g is convex and piecewise linear, so its minimum is at s = 0 or where
        two of its lines cross."""
        ch = _block_channel(taps, lambda0, amax, alpha, grid)
        res = lp.ba_capacity(ch, alpha=alpha)
        assert res.iterations < 1000
        W, c = ch.transition, ch.cost
        d = rel_entr(W, res.input_dist @ W).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossings = (d[:, None] - d[None, :]) / (c[:, None] - c[None, :])
        s = np.concatenate([[0.0], crossings[np.isfinite(crossings) & (crossings > 0)]])
        g = np.max(d[None, :] - s[:, None] * c[None, :], axis=1) + s * alpha
        assert res.value <= g.min() + 1e-12
        assert g.min() <= res.value + res.gap + 1e-12
        assert res.gap <= 1e-9
        assert res.achieved_cost <= alpha
        hist = np.asarray(res.history)
        assert hist.size == res.iterations
        assert np.all(np.diff(hist) >= -1e-12)

    @pytest.mark.parametrize("taps, lambda0, amax, alpha, plain", [
        ((0.7, 0.3), 5.0, 40.0, 5.0, (0.803374209720516, 1.400389868860766)),
        ((0.8, 0.2), 2.0, 24.0, 14.0, (1.010294599276779, 1.867900664993957)),
        ((0.65, 0.35), 8.0, 50.0, 30.0, (1.187802689870334, 2.163905487622664)),
    ], ids=["b1", "b2", "b3"])
    def test_block_values_unchanged(self, taps, lambda0, amax, alpha, plain):
        """C_r on the grid-3 block instances, r = 1 and 2, as plain
        Blahut-Arimoto found them to tol 1e-9."""
        for r, expected in zip((1, 2), plain):
            res = lp.ba_capacity(_block_channel(taps, lambda0, amax, alpha, 3, r), alpha=alpha)
            assert abs(res.value - expected) <= 1e-9

    def test_many_collinear_rows_certified_early(self):
        """343 inputs, 84 outputs (k = 2, grid 7) and 8 inputs in the
        optimal support: started from BA's whole support, the polish's adds
        and drops alternated until each attempt hit its step cap, and BA
        finished alone after thousands of iterations."""
        ch = _block_channel((0.4874, 0.2245, 0.2881), 0.9117, 37.0572, 18.759, 7)
        res = lp.ba_capacity(ch, alpha=18.759)
        assert res.iterations <= 65
        assert res.gap <= 1e-9
        assert abs(res.value - 1.2493686798253196) <= 1e-9


def _traced_peak(fn) -> int:
    """Bytes fn() allocates at its peak above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestWlogwRows:
    @staticmethod
    def one_pass(W):
        """The row terms through one W-sized temporary."""
        t = np.maximum(W, _TINY)
        np.log(t, out=t)
        t *= W
        return t.sum(axis=1)

    @pytest.mark.parametrize("shape", [(16, 59_319), (59_319, 16), (300, 700), (3, 5), (1, 1),
                                       (0, 4)])
    def test_rows_sum_as_in_one_pass(self, shape):
        """Bit for bit: blocking rows keeps each row's summation order."""
        W = np.random.default_rng(shape[0]).random(shape) ** 4
        W[W < 0.01] = 0.0
        np.testing.assert_array_equal(_wlogw_rows(W), self.one_pass(W))

    def test_peak_is_a_block(self):
        """The shape of the on-off r = 3 block channel, 16 x 59,319: its
        temporary holds one row, not W."""
        W = np.random.default_rng(3).random((16, 59_319))
        assert _traced_peak(lambda: _wlogw_rows(W)) <= 0.1 * W.nbytes


def _block_spec(taps, lambda0, amax, alpha, grid, r):
    spec = lp.ChannelSpec(lp.ImpulseResponse(taps), lambda0, amax, alpha)
    return lp.BlockChannelSpec(spec, lp.InputGrid.uniform(amax, grid), r=r)


def _close(got, want, rel=1e-13):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


def _reps_by_row_bytes(W, cost):
    """Mask of the cheapest member, the lowest input on a cost tie, of each
    group of bit-identical rows of W."""
    groups = {}
    for x, row in enumerate(W):
        groups.setdefault(row.tobytes(), []).append(x)
    reps = np.zeros(len(W), dtype=bool)
    for members in groups.values():
        reps[min(members, key=cost.__getitem__)] = True
    return reps


class TestSlotFactors:
    """Channels seen through _SlotFactors, from a block channel's slot
    factors or from a matrix (rows), against plain NumPy on the matrix."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("taps", [(0.8,), (0.6, 0.0), (0.7, 0.3), (0.5, 0.3, 0.0),
                                      (0.5, 0.3, 0.2)])
    def test_operations_match_dense(self, taps, r):
        """pW, Wv, the support Gram, the row terms sum W log W and the
        duplicate-row representatives, at k = 0, 1, 2, trailing zero taps
        included."""
        bspec = _block_spec(taps, 1.0, 4.0, 2.0, 3 if r < 3 else 2, r)
        table, index, _ = _block_factors(bspec)
        ch = lp.build_block_channel(bspec)
        W, factors = ch.transition, _SlotFactors(table, index)
        rng = np.random.default_rng(len(taps) * 10 + r)
        p = rng.dirichlet(np.ones(ch.n_inputs))
        v = rng.normal(size=ch.n_outputs)
        on = rng.random(ch.n_inputs) < 0.6
        q = p @ W
        assert _close(factors.pW(p), q)
        assert _close(factors.Wv(v), W @ v)
        assert _close(factors.gram(on, q), (W[on] / q) @ W[on].T)
        assert _close(factors.wlogw(), rel_entr(W, 1.0).sum(axis=1))
        np.testing.assert_array_equal(factors.reps(ch.cost), _reps_by_row_bytes(W, ch.cost))

    def test_rows_merge_duplicates_onto_the_cheapest(self):
        """rows() tables a matrix's distinct rows in first-occurrence order;
        bit-identical rows share an index, and reps keeps the cheapest of
        each group, the lowest input on a cost tie.  After take, the
        operations are those of the kept rows."""
        rng = np.random.default_rng(5)
        A, B, C = rng.dirichlet(np.ones(6), size=3)
        W = np.array([A, B, A, C, B, A, B])
        cost = np.array([2.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.5])
        factors = _SlotFactors.rows(W)
        np.testing.assert_array_equal(factors.table, [A, B, C])
        np.testing.assert_array_equal(factors.index[:, 0], [0, 1, 0, 2, 1, 0, 1])
        reps = factors.reps(cost)
        np.testing.assert_array_equal(reps, [False, False, True, True, False, False, True])
        np.testing.assert_array_equal(reps, _reps_by_row_bytes(W, cost))
        kept = factors.take(reps)
        assert kept.table is factors.table
        p = np.array([0.2, 0.5, 0.3])
        v = rng.normal(size=6)
        assert _close(kept.pW(p), p @ W[reps])
        assert _close(kept.Wv(v), W[reps] @ v)
        assert _close(kept.wlogw(), rel_entr(W[reps], 1.0).sum(axis=1))

    def test_rows_all_distinct_is_the_matrix(self):
        """With every row distinct, the table is W itself, not a copy."""
        W = np.random.default_rng(6).dirichlet(np.ones(5), size=8)
        factors = _SlotFactors.rows(W)
        assert factors.table is W
        np.testing.assert_array_equal(factors.index[:, 0], np.arange(8))

    def test_rows_gram_is_x_xt(self):
        """The one-slot Gram is X Xᵀ with X = W_S / √q, bit for bit."""
        rng = np.random.default_rng(7)
        W = rng.dirichlet(np.ones(9), size=12)
        on = rng.random(12) < 0.6
        q = rng.dirichlet(np.ones(12)) @ W
        X = W[on] / np.sqrt(q)
        np.testing.assert_array_equal(_SlotFactors.rows(W).gram(on, q), X @ X.T)

    def test_rows_hold_no_copy_of_the_matrix(self):
        """Tabling the 16 x 59,319 on-off block matrix (7.6 MB) peaks at
        under a tenth of it: rows are grouped by hash, not by their bytes."""
        W = lp.build_block_channel(_block_spec((0.7, 0.3), 1.0, 10.0, 5.0, 2, 3)).transition
        _SlotFactors.rows(W)
        assert _traced_peak(lambda: _SlotFactors.rows(W)) <= 0.1 * W.nbytes

    @pytest.mark.parametrize("instance, size, bound", [
        (((0.7, 0.3), 1.0, 10.0, 5.0, 2, 3), None, 0.15),
        (((0.7, 0.3), 5.0, 40.0, 5.0, 9, 2), 200, 0.1),
    ], ids=["on-off-r3-full", "readme-r2-200"])
    def test_gram_peak_memory(self, instance, size, bound):
        """The factored Gram's peak, as a share of the dense block matrix W:
        the on-off r = 3 channel over its whole support, and README's r = 2
        channel (729 x 9,025) over 200 of its inputs."""
        table, index, _ = _block_factors(_block_spec(*instance))
        factors = _SlotFactors(table, index)
        nbytes = factors.n * table.shape[1] ** factors.r * np.dtype(np.float64).itemsize
        rng = np.random.default_rng(8)
        q = factors.pW(rng.dirichlet(np.ones(factors.n)))
        on = np.zeros(factors.n, dtype=bool)
        on[rng.permutation(factors.n)[:size]] = True
        factors.gram(on, q)
        assert _traced_peak(lambda: factors.gram(on, q)) <= bound * nbytes

    @pytest.mark.parametrize("taps, lambda0, amax, alpha, grid, rs", [
        ((0.7, 0.3), 5.0, 40.0, 5.0, 3, (1, 2)),
        ((0.8, 0.2), 2.0, 24.0, 14.0, 3, (1, 2)),
        ((0.65, 0.35), 8.0, 50.0, 30.0, 3, (1, 2)),
        ((0.6, 0.4, 0.0), 3.0, 30.0, 6.0, 3, (1,)),
        ((0.36, 0.48, 0.16), 3.0, 30.0, 6.0, 3, (1,)),
        ((0.7, 0.3), 1.0, 10.0, 5.0, 2, (3,)),
        ((0.7, 0.3), 5.0, 40.0, 5.0, 5, (1, 2)),
        ((0.5, 0.3, 0.2), 5.0, 40.0, 10.0, 3, (2,)),
    ], ids=["b1", "b2", "b3", "degrade-p", "degrade-p'", "on-off", "A04", "taps3"])
    def test_sandwich_matches_dense_solve(self, taps, lambda0, amax, alpha, grid, rs):
        """block_sandwich_bounds against ba_capacity on the dense matrix, on
        the benchmark's block instances, A04's and a 3-tap one."""
        for r in rs:
            bspec = _block_spec(taps, lambda0, amax, alpha, grid, r)
            bound = lp.block_sandwich_bounds(bspec)
            res = lp.ba_capacity(lp.build_block_channel(bspec), alpha=alpha)
            assert abs(bound.upper * r - res.value) <= 1e-12
            assert abs(bound.gap * r - res.gap) <= 1e-12
            assert np.abs(bound.input_dist - res.input_dist).max() <= 1e-9

    def test_grid_larger_than_matrix_solves_dense(self):
        """Generic taps and tiny intensities: 64 distinct slot pmfs of 3
        counts, so the 64^2 grid of slot-index pairs outsizes the 256 x 9
        matrix, which is then solved as it stands, bit for bit."""
        bspec = _block_spec((0.41, 0.33, 0.26), 1e-4, 4e-4, 1e-4, 4, 2)
        table, index, _ = _block_factors(bspec)
        assert table.shape[0] ** 2 > index.shape[0] * table.shape[1] ** 2
        bound = lp.block_sandwich_bounds(bspec)
        res = lp.ba_capacity(lp.build_block_channel(bspec), alpha=1e-4)
        assert (bound.upper * 2).hex() == res.value.hex()

    def test_sandwich_peak_memory_below_half_the_matrix(self):
        """On the 16 x 59,319 on-off block channel (7.6 MB) the sandwich
        solve never holds the matrix: its peak stays under half of it."""
        bspec = _block_spec((0.7, 0.3), 1.0, 10.0, 5.0, 2, 3)
        nbytes = 16 * 59_319 * np.dtype(np.float64).itemsize
        lp.block_sandwich_bounds(bspec)  # warm the caches of the modules it calls
        assert _traced_peak(lambda: lp.block_sandwich_bounds(bspec)) <= 0.5 * nbytes
