"""Self-tests of the benchmark: tracing reaches every layer, result checks
catch changed values, and a solver stall counts as a failure.

    python3 perfbench/selftest.py

Takes about half a minute; exits non-zero on the first failed test.
"""
import shutil
import sys
import time

import run

run.import_ltipc()

import ltipc.bounds  # noqa: E402
import ltipc.solver  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ltipc import ChannelSpec, ImpulseResponse, InputGrid  # noqa: E402


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def _workdir(name):
    path = run.OUT_DIR / f"selftest-{name}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _one_op_per_kind(wl):
    kinds = {}
    for op in wl.ops:
        kinds.setdefault(op.name.split(":")[0].split("@")[0], op)
    return workloads.Workload(wl.name, list(kinds.values()), wl.cross_check, wl.layers)


def test_smoke_pass_reaches_every_layer():
    """One op of each kind per workload, traced: every layer metric the
    workload is meant to move sees work, the checks pass on the reference
    seed, self times add up to the pass, and the wrappers come off again."""
    originals = [getattr(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    for name in workloads.WORKLOADS:
        workdir = _workdir(name)
        try:
            wl = _one_op_per_kind(workloads.build(name, run.DEFAULT_SEED, str(workdir)))
            reference = run.load_reference(name, run.DEFAULT_SEED)
            tracer = tracing.Tracer()
            with tracer.installed():
                walls, _, problems = run.run_pass(wl, reference, tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expect(not problems, f"{name}: smoke ops failed: {problems}")
        metrics = tracing.layer_metrics(tracer.spans)
        for layer in wl.layers:
            expect(metrics[layer] > 0, f"{name}: {layer} saw no work; is a wrapper bypassed?")
        self_sum = sum(metrics[m] for m in tracing.SELF_TIME_METRICS.values())
        wall = sum(walls.values())
        expect(abs(self_sum - wall) <= 0.05 * wall,
               f"{name}: self times {self_sum:.4f} s do not add up to {wall:.4f} s")
    restored = [getattr(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    expect(all(a is b for a, b in zip(originals, restored)), "wrappers left installed")


def test_changed_reference_marks_op_failed():
    """A reference value moved by 1e-5 nats, or a changed digest, fails the op."""
    for name, op_name, key in (("alpha-sweep", "stationary_upper_bound@a0", "upper"),
                               ("simulate", "simulate:ook0", "outputs.sha256")):
        workdir = _workdir(name)
        try:
            wl = workloads.build(name, run.DEFAULT_SEED, str(workdir))
            wl = workloads.Workload(name, [op for op in wl.ops if op.name == op_name])
            reference = run.load_reference(name, run.DEFAULT_SEED)
            _, _, problems = run.run_pass(wl, reference)
            expect(not problems, f"{op_name} fails against the true reference: {problems}")
            want = reference[op_name][key]
            reference[op_name][key] = want + 1e-5 if isinstance(want, float) else "0" * 64
            _, _, problems = run.run_pass(wl, reference)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expect(op_name in problems, f"{op_name}: a changed {key} went unnoticed")


def test_convergence_error_counts_as_failed():
    """Ops that raise ConvergenceError are failures with their time counted,
    including the known grid-4 stall of stationary_upper_bound."""
    taps, lam0, amax = (0.7, 0.3), 5.0, 40.0
    spec = ChannelSpec(ImpulseResponse(taps), lam0, amax, 10.0)
    grid3 = InputGrid.uniform(amax, 3)
    channel = ltipc.build_block_channel(ltipc.BlockChannelSpec(spec, grid3, r=1))
    capped = ltipc.SolverConfig(max_iters=5)
    ops = [
        workloads.Op("capped-ba", "solver.ba",
                     lambda prior: ltipc.solver.ba_capacity(channel, alpha=10.0, config=capped),
                     lambda res: {"c": res.value}),
        workloads.Op("grid4-stationary-upper", "bounds.stationary",
                     lambda prior: ltipc.bounds.stationary_upper_bound(
                         spec, InputGrid.uniform(amax, 4)),
                     lambda res: {"upper": res.upper}),
    ]
    wl = workloads.Workload("stalls", ops)
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        walls, values, problems = run.run_pass(wl, None, tracer)
    elapsed = time.perf_counter() - t0
    for op in ops:
        expect(op.name not in values, f"{op.name} produced values despite stalling")
        expect(any("ConvergenceError" in p for p in problems.get(op.name, [])),
               f"{op.name} was not counted as failed: {problems}")
    expect(sum(walls.values()) >= 0.9 * elapsed, "a failed op's time was not counted")
    metrics = tracing.layer_metrics(tracer.spans)
    expect(metrics["solver.failed"] == 1, "solver.failed missed the capped solve")
    expect(metrics["bounds.stationary_failed"] == 1, "bounds.stationary_failed missed the stall")
    expect(metrics["bounds.fw_iterations"] > 0, "the stall's FW iterations were dropped")


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            t0 = time.perf_counter()
            try:
                fn()
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
            else:
                print(f"ok   {name} ({time.perf_counter() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
