"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s or in failure output)."""
import math

import numpy as np
import pytest

import ltipc as lp
from ltipc.bounds import (
    _cmi_value_grad,
    _single_slot_channel,
    _wlogw_rows,
)

from helpers import (
    bsc,
    gaussian_channel,
    grid_search_capacity,
    grid_search_symkl,
    small_corpus,
)

TIGHT = lp.SolverConfig(tol=1e-9)
FW = lp.SolverConfig(tol=1e-7, max_iters=20000)


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" | {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def isi_instance():
    """The reference instance: taps (0.7, 0.3), lam0=5, A=40, alpha=5, m=5."""
    spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
    return spec, lp.InputGrid.uniform(40.0, 5)


@pytest.fixture(scope="module")
def c_bounds(isi_instance):
    spec, grid = isi_instance
    b1 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=1), TIGHT)
    b2 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec, grid, r=2), TIGHT)
    return b1, b2


def test_a01_bsc_closed_form_capacity():
    """Solver value on the binary symmetric channel vs the entropy formula,
    within 1e-6 nats."""
    p = 0.11
    h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    expected = math.log(2) * (1 - h2)
    got = lp.ba_capacity(bsc(p), config=TIGHT).value
    check("A01 bsc-closed-form-capacity", abs(got - expected) < 1e-6,
          f"got {got:.9f}, expected {expected:.9f}")


def test_a02_symkl_closed_forms():
    """Quadratic maximization on the discretized memoryless instance matches
    the closed form within 1e-6, maximizer mass error below 1e-6."""
    spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
    ch = lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 9))
    ok, details = True, []
    for alpha in (5.0, 15.0):
        res = lp.sym_kl_max(ch, alpha=alpha)
        closed = lp.poisson_sym_bound_closed_form(40.0, alpha, 5.0)
        law = dict(zip(res.support, res.masses))
        mass_err = abs(law.get(40.0, 0.0) - alpha / 40.0) + abs(
            law.get(0.0, 0.0) - (1 - alpha / 40.0))
        ok &= abs(res.value - closed) < 1e-6 and set(law) == {0.0, 40.0}
        ok &= mass_err < 1e-6
        details.append(f"alpha={alpha}: |val-closed|={abs(res.value - closed):.2e} "
                       f"mass_err={mass_err:.2e}")
    check("A02 symkl-closed-forms", ok, "; ".join(details))


def test_a03_symkl_dominance_and_ratio():
    """Capacity below the quadratic bound; the ratio bound/capacity is finite
    and decreasing in the background intensity (monotone within two solver
    tolerances)."""
    ratios = []
    ok = True
    for lam0 in (5.0, 10.0, 20.0, 40.0, 80.0):
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), lam0, 40.0, 5.0)
        ch = lp.build_memoryless_channel(spec, lp.InputGrid.uniform(40.0, 9))
        cap = lp.ba_capacity(ch, alpha=5.0, config=TIGHT).value
        bound = lp.poisson_sym_bound_closed_form(40.0, 5.0, lam0)
        ok &= cap <= bound
        ratios.append(bound / cap)
    ok &= all(np.isfinite(ratios))
    ok &= all(b <= a + 2 * TIGHT.tol for a, b in zip(ratios, ratios[1:]))
    check("A03 symkl-dominance-and-narrowing-ratio", ok,
          "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_a04_sandwich_bounds(c_bounds):
    """(1/2)C1 <= (2/3)C2 and C2 <= C1 + 1e-6 on the reference instance."""
    b1, b2 = c_bounds
    c1, c2 = b1.upper, b2.upper
    ok = (0.5 * c1 <= (2.0 / 3.0) * c2) and (c2 <= c1 + 1e-6) and (b2.lower <= c2)
    check("A04 block-sandwich-ordering", ok,
          f"C1={c1:.8f} C2={c2:.8f} lower1={0.5 * c1:.8f} lower2={(2/3) * c2:.8f}")


def test_a05_stationary_bounds_consistency(isi_instance, c_bounds):
    """Stationary upper below C1 + 1e-6; stationary lower beats C1/2 - 1e-6
    at the larger budget."""
    spec, grid = isi_instance
    b1, _ = c_bounds
    up = lp.stationary_upper_bound(spec, grid, FW)
    ok_upper = up.upper <= b1.upper + 1e-6

    spec15 = lp.ChannelSpec(spec.impulse, spec.lambda0, spec.amax, 15.0)
    lo15 = lp.stationary_lower_bound(spec15, grid, FW)
    b1_15 = lp.block_sandwich_bounds(lp.BlockChannelSpec(spec15, grid, r=1), TIGHT)
    ok_lower = lo15.lower >= 0.5 * b1_15.upper - 1e-6
    check("A05 stationary-bounds-consistency", ok_upper and ok_lower,
          f"T2U={up.upper:.8f} C1={b1.upper:.8f}; "
          f"T2L(15)={lo15.lower:.8f} C1(15)/2={0.5 * b1_15.upper:.8f}")


def test_a06_gradient_finite_differences(isi_instance):
    """Analytic gradients of the stationary objective, with one prefix group
    (I(X; Y), the upper bound) and with m groups (the lower bound), vs
    central finite differences (h=1e-6) at 20 random interior polytope
    points, max relative error below 1e-4."""
    spec, grid = isi_instance
    ch = _single_slot_channel(spec, grid, 1e-10)
    m = 5
    W = ch.transition
    Wr = W.reshape(m, m, W.shape[1])
    d = _wlogw_rows(W)
    rng = np.random.default_rng(17)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        M = rng.random((m, m)) + 0.05
        P = (M + M.T) / 2
        p = (P / P.sum()).reshape(-1)
        for value_grad in (lambda x: _cmi_value_grad(W[None], d, x),
                           lambda x: _cmi_value_grad(Wr, d, x)):
            _, g = value_grad(p)
            for i in range(p.size):
                e = np.zeros_like(p)
                e[i] = h
                fd = (value_grad(p + e)[0] - value_grad(p - e)[0]) / (2 * h)
                worst = max(worst, abs(fd - g[i]) / max(abs(fd), 1e-9))
    check("A06 gradient-finite-differences", worst < 1e-4,
          f"max rel err {worst:.2e}")


def test_a07_intensity_sufficiency():
    """I(window; count) equals I(aggregated intensity; count) within 1e-9 on
    50 random joint laws."""
    spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 40.0)
    grid = lp.InputGrid.uniform(40.0, 5)
    ch = _single_slot_channel(spec, grid, 1e-10)
    lam = np.array([5.0 + 0.7 * b + 0.3 * a for (a, b) in ch.input_labels])
    keys = np.round(lam, 9)
    uniq = np.unique(keys)
    groups = [np.flatnonzero(keys == u) for u in uniq]
    agg_rows = np.array([ch.transition[g[0]] for g in groups])
    agg = lp.DiscreteChannel(agg_rows, np.zeros(len(groups)), tuple(range(len(groups))))
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(50):
        p = rng.dirichlet(np.ones(ch.n_inputs))
        agg_p = np.array([p[g].sum() for g in groups])
        worst = max(worst, abs(lp.mutual_information(ch, p)
                               - lp.mutual_information(agg, agg_p)))
    check("A07 intensity-sufficient-statistic", worst < 1e-9,
          f"max |I_full - I_agg| = {worst:.2e}")


def test_a08_degradedness():
    """Ordering holds on 10 random feasible factor pairs; 200 deconvolution
    round trips stay within 1e-10 residual."""
    rng = np.random.default_rng(23)
    grid = lp.InputGrid.uniform(40.0, 5)
    ok_order = True
    margins = []
    for _ in range(10):
        p = rng.random(2) + 0.3
        p /= p.sum()
        q = rng.random(2) + 1e-2
        q /= q.sum()
        p_imp = lp.ImpulseResponse(tuple(p))
        pp_imp = lp.ImpulseResponse(tuple(np.convolve(p, q)))
        verdict = lp.capacity_ordering_check(
            p_imp, pp_imp, 5.0, 40.0, 5.0, grid, r=1,
            config=lp.SolverConfig(tol=1e-7, max_iters=500_000), tol=1e-6)
        ok_order &= verdict.status == "consistent"
        margins.append(verdict.bound_p.upper - verdict.bound_p_prime.upper)

    worst_residual = 0.0
    for _ in range(200):
        n_p, n_q = rng.integers(1, 7), rng.integers(1, 7)
        p = rng.random(n_p) + 0.2
        p /= p.sum()
        q = rng.random(n_q) + 1e-2
        q /= q.sum()
        rep = lp.check_degraded(lp.ImpulseResponse(tuple(p)),
                                lp.ImpulseResponse(tuple(np.convolve(p, q))))
        assert rep.feasible
        worst_residual = max(worst_residual, rep.residual)
    ok = ok_order and worst_residual <= 1e-10
    check("A08 degradedness-ordering-and-roundtrip", ok,
          f"min margin {min(margins):.2e}; worst residual {worst_residual:.2e}")


def test_a09_simulator_cross_validation():
    """Plug-in estimate within three jackknife standard errors plus the
    documented bias of the exact value; slot means within four standard
    errors of the filtered intensity."""
    spec2 = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 5.0, 40.0, 5.0)
    ch = lp.build_memoryless_channel(spec2, lp.InputGrid((0.0, 40.0)))
    p = np.array([0.875, 0.125])
    exact = lp.mutual_information(ch, p)
    est = lp.plugin_mi_estimate(ch, p, 1_000_000, seed=29)
    ok_mi = abs(est.value - exact) <= 3 * est.stderr + est.bias

    spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 5.0, 40.0, 5.0)
    n_trials = 3000
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 40.0, size=24)
    sim = lp.SimConfig(seed=37, n_slots=24, n_trials=n_trials)
    trace = lp.simulate_p2p(spec, x, sim)
    lam = 5.0 + lp.convolve(x, spec.impulse)
    means = trace.outputs[:, 0, :].mean(axis=0)
    dev = np.abs(means - lam) / np.sqrt(lam / n_trials)
    ok_means = bool(np.all(dev <= 4.0))
    check("A09 simulator-cross-validation", ok_mi and ok_means,
          f"plugin |err|={abs(est.value - exact):.2e} vs "
          f"3se+bias={3 * est.stderr + est.bias:.2e}; max slot dev {dev.max():.2f} se")


def test_a10_gaussian_bound():
    """Numeric symmetrized divergence on a finely discretized Gaussian
    channel equals Var(X)/sigma^2 within 1e-4 for three input laws."""
    sigma = 1.0
    laws = [
        (np.array([0.0, 1.0]), np.array([0.5, 0.5])),
        (np.array([0.0, 0.5, 2.0]), np.array([0.25, 0.5, 0.25])),
        (np.array([-1.0, 0.0, 1.0, 3.0]), np.array([0.1, 0.4, 0.3, 0.2])),
    ]
    worst = 0.0
    for support, masses in laws:
        ch = gaussian_channel(support, sigma=sigma, mu=0.3, step=0.01)
        numeric = lp.sym_kl_generic(ch, masses)
        closed = lp.gaussian_sym_bound(support, masses, sigma, mu=0.3)
        worst = max(worst, abs(numeric - closed))
    check("A10 gaussian-symkl-bound", worst < 1e-4, f"max |err| {worst:.2e}")


def test_a11_monotonicity_suite():
    """C1 non-decreasing in the budget and the peak, non-increasing in the
    background, each on a four-point sweep with 1e-6 slack."""
    imp = lp.ImpulseResponse((0.7, 0.3))
    kw = dict(base_lambda0=5.0, base_amax=40.0, base_alpha=5.0,
              grid_points=5, config=TIGHT, slack=1e-6)
    va = lp.monotonicity_sweep(imp, "alpha", [5.0, 10.0, 20.0, 40.0], **kw)
    vl = lp.monotonicity_sweep(imp, "lambda0", [1.0, 5.0, 15.0, 50.0], **kw)
    vm = lp.monotonicity_sweep(imp, "amax", [10.0, 20.0, 30.0, 40.0], **kw)
    ok = va.monotone and vl.monotone and vm.monotone
    check("A11 monotonicity-suite", ok,
          f"alpha {np.round(va.c1, 6)}; lambda0 {np.round(vl.c1, 6)}; "
          f"amax {np.round(vm.c1, 6)}")


def test_a12_brute_force_oracles():
    """Solver vs dense simplex search within 2e-3 nats; quadratic bound vs
    exhaustive two-point plus grid search within 1e-4."""
    worst_cap, worst_sym = 0.0, 0.0
    for ch in small_corpus():
        ba = lp.ba_capacity(ch, config=lp.SolverConfig(tol=1e-10)).value
        oracle = grid_search_capacity(ch.transition, step=1e-3)
        worst_cap = max(worst_cap, abs(ba - oracle))

        got = lp.sym_kl_max(ch).value
        sym_oracle = grid_search_symkl(ch.transition, step=1e-3)
        worst_sym = max(worst_sym, abs(got - sym_oracle))
    ok = worst_cap < 2e-3 and worst_sym < 1e-4
    check("A12 brute-force-oracles", ok,
          f"max capacity dev {worst_cap:.2e}; max symkl dev {worst_sym:.2e}")
