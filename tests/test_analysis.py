"""Degradedness factorization, capacity ordering, monotonicity sweeps."""
import numpy as np
import pytest

import ltipc as lp

CFG = lp.SolverConfig(tol=1e-8)


def random_normalized_taps(rng, max_len=6, min_lead=0.1):
    while True:
        n = int(rng.integers(1, max_len + 1))
        taps = rng.random(n) + 1e-3
        taps /= taps.sum()
        if taps[0] >= min_lead:
            return taps


class TestCheckDegraded:
    def test_identity_factorization(self):
        p = lp.ImpulseResponse((0.7, 0.3))
        rep = lp.check_degraded(p, p)
        assert rep.feasible
        np.testing.assert_allclose(rep.q[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.q[1:], 0.0, atol=1e-12)
        assert rep.residual <= 1e-12

    def test_memoryless_base_recovers_target(self):
        p = lp.ImpulseResponse((1.0,))
        p_prime = lp.ImpulseResponse((0.25, 0.5, 0.25))
        rep = lp.check_degraded(p, p_prime)
        assert rep.feasible
        np.testing.assert_allclose(rep.q[:3], [0.25, 0.5, 0.25], atol=1e-12)

    def test_hand_pair(self):
        p = lp.ImpulseResponse((0.7, 0.3))
        p_prime = lp.ImpulseResponse((0.35, 0.5, 0.15))
        rep = lp.check_degraded(p, p_prime)
        assert rep.feasible
        np.testing.assert_allclose(rep.q[:2], [0.5, 0.5], atol=1e-12)
        assert rep.residual <= 1e-12

    def test_infeasible_pair(self):
        p = lp.ImpulseResponse((0.7, 0.3))
        p_prime = lp.ImpulseResponse((0.5, 0.5))  # q would need mass > 1
        rep = lp.check_degraded(p, p_prime)
        assert not rep.feasible
        assert rep.q is None

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            lp.check_degraded(lp.ImpulseResponse((0.5, 0.3)),
                              lp.ImpulseResponse((1.0,)))

    def test_rejects_zero_leading_tap(self):
        with pytest.raises(ValueError):
            lp.check_degraded(lp.ImpulseResponse((0.0, 1.0)),
                              lp.ImpulseResponse((0.0, 1.0)))

    def test_roundtrip_on_random_pairs(self):
        """200 random normalized pairs: the recovered factor reproduces the
        convolution within 1e-10."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_normalized_taps(rng)
            q = random_normalized_taps(rng)
            conv = np.convolve(p, q)
            rep = lp.check_degraded(lp.ImpulseResponse(tuple(p)),
                                    lp.ImpulseResponse(tuple(conv)))
            assert rep.feasible
            assert rep.residual <= 1e-10
            np.testing.assert_allclose(rep.q[: q.size], q, atol=1e-9)


class TestOrderingCheck:
    GRID = lp.InputGrid.uniform(10.0, 3)

    def test_equal_pair_consistent(self):
        p = lp.ImpulseResponse((0.7, 0.3))
        verdict = lp.capacity_ordering_check(p, p, 2.0, 10.0, 3.0, self.GRID,
                                             config=CFG)
        assert verdict.status == "consistent"
        assert abs(verdict.bound_p.upper - verdict.bound_p_prime.upper) < 1e-6

    def test_smoothing_reduces_bound(self):
        p = lp.ImpulseResponse((1.0, 0.0))
        p_prime = lp.ImpulseResponse((0.5, 0.5))  # q = (0.5, 0.5)
        verdict = lp.capacity_ordering_check(p, p_prime, 2.0, 10.0, 3.0,
                                             self.GRID, config=CFG)
        assert verdict.status == "consistent"
        assert verdict.bound_p.upper >= verdict.bound_p_prime.upper - 1e-6

    def test_self_convolved_pair_converges(self):
        """The zero-padded p side is a slow constrained solve; both sides must
        certify their gap within the default iteration cap."""
        p = lp.ImpulseResponse((0.7, 0.3))
        p_prime = lp.ImpulseResponse(tuple(np.convolve((0.7, 0.3), (0.7, 0.3))))
        verdict = lp.capacity_ordering_check(p, p_prime, 5.0, 30.0, 9.0,
                                             lp.InputGrid.uniform(30.0, 3))
        assert verdict.status == "consistent"
        assert verdict.bound_p.gap <= 1e-9
        assert verdict.bound_p_prime.gap <= 1e-9

    def test_not_applicable_without_factorization(self):
        p = lp.ImpulseResponse((0.7, 0.3))
        p_prime = lp.ImpulseResponse((0.5, 0.5))
        verdict = lp.capacity_ordering_check(p, p_prime, 2.0, 10.0, 3.0,
                                             self.GRID, config=CFG)
        assert verdict.status == "not-applicable"
        assert verdict.bound_p is None


class TestMonotonicitySweep:
    IMPULSE = lp.ImpulseResponse((0.7, 0.3))

    def test_alpha_non_decreasing(self):
        v = lp.monotonicity_sweep(self.IMPULSE, "alpha", [1.0, 2.0, 4.0, 8.0],
                                  base_lambda0=2.0, base_amax=10.0,
                                  base_alpha=3.0, grid_points=3, config=CFG)
        assert v.monotone and v.direction == "non-decreasing"

    def test_lambda0_non_increasing(self):
        v = lp.monotonicity_sweep(self.IMPULSE, "lambda0", [1.0, 3.0, 6.0, 12.0],
                                  base_lambda0=2.0, base_amax=10.0,
                                  base_alpha=3.0, grid_points=3, config=CFG)
        assert v.monotone and v.direction == "non-increasing"

    def test_amax_non_decreasing(self):
        v = lp.monotonicity_sweep(self.IMPULSE, "amax", [4.0, 8.0, 16.0],
                                  base_lambda0=2.0, base_amax=10.0,
                                  base_alpha=3.0, grid_points=3, config=CFG)
        assert v.monotone and v.direction == "non-decreasing"

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            lp.monotonicity_sweep(self.IMPULSE, "noise", [1.0],
                                  base_lambda0=2.0, base_amax=10.0,
                                  base_alpha=3.0)

    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            lp.monotonicity_sweep(self.IMPULSE, "alpha", [2.0, 1.0],
                                  base_lambda0=2.0, base_amax=10.0,
                                  base_alpha=3.0)
