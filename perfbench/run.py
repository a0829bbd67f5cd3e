"""ltipc benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload block-bounds --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, untraced then traced

One run measures one workload in this process.  It repeats passes over the
workload's fixed op list until --seconds have elapsed (at least
MIN_PASSES), checks every op's result on every pass, and prints the metrics
by name with units, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are rescaled to a reference host speed: a fixed calibration loop runs
before every op and every set-up probe, and a measured time is multiplied by
CAL_REF_S over the loop's median time in the same run (see calibrate()).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from spans around each layer's public functions (see tracing.py); a traced
run alternates untraced and traced passes to measure the tracing overhead.
See README.md for the workloads and the metrics.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on two shared vCPUs a two-thread gemv waits for the slower
# core, which made block-bounds both slower and noisier.  Set before numpy
# loads; the set-up probes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0        # the seed reference.json was recorded with
MIN_PASSES = 3
SETUP_PROBES = 5        # child processes timed from start to inputs-ready
SETUP_CAL_REPS = 3      # calibration loops before each set-up probe (1 before each op)
CAL_REF_S = 0.020       # the calibration loop's median time at reference speed
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900


def import_ltipc():
    """Import ltipc from this checkout's src/, and nowhere else."""
    if not (SRC / "ltipc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ltipc sources under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ltipc
    if Path(ltipc.__file__).resolve().parent != (SRC / "ltipc").resolve():
        raise SystemExit(f"perfbench: imported ltipc from {ltipc.__file__}, not {SRC}")
    return ltipc


def openblas_threads():
    """OpenBLAS's own thread count, read through its C API when reachable."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block(seed):
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "openblas_threads": openblas_threads(),
        "LTIPC_THREADS": os.environ.get("LTIPC_THREADS", "unset (1)"),
        "commit": git_commit(), "seed": seed, "platform": platform.platform(),
    }


def setup(workload, seed):
    """Import ltipc, make the workload's inputs and write its instance files."""
    import_ltipc()
    import workloads
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.build(workload, seed, str(workdir)), workdir


def time_setup(workload, seed):
    """Median over SETUP_PROBES fresh processes of start-to-inputs-ready."""
    samples, cal = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        calibrate(cal, SETUP_CAL_REPS)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                t1 = time.perf_counter()
                child.communicate(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {child.returncode})")
        samples.append(t1 - t0)
    calibrate(cal, SETUP_CAL_REPS)
    return statistics.median(samples), samples, cal


_CAL_DATA = None


def calibrate(samples, reps=1):
    """Time `reps` runs of a fixed loop and append each time to `samples`.

    The loop does each kind of work the workloads spend time on: interpreter
    work, numpy calls on tiny arrays, matrix-vector products on a
    cache-resident array, sums over 8 MB, and small HiGHS LPs.  Shared hosts
    change speed by tens of per cent for seconds at a time; dividing an op's
    time by the calibration time of the same run cancels most of that
    drift, while a change to ltipc moves only the op's time."""
    global _CAL_DATA
    import numpy as np
    from scipy.optimize import linprog
    if _CAL_DATA is None:
        rng = np.random.default_rng(0)
        _CAL_DATA = (rng.random((300, 300)), rng.random(300), rng.random(1_000_000),
                     rng.random(40), rng.random((30, 40)), 10.0 * rng.random(30))
    a, v, big, c, a_ub, b_ub = _CAL_DATA
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        u, cdf = np.linspace(0.1, 0.9, 4), np.zeros(4)
        for _ in range(12):
            cdf[:] = 0.01
            for _ in range(49):
                pending = u > cdf
                cdf[pending] += 0.01
                pending.any()
        x = v
        for _ in range(200):
            x = a @ x
            x /= x.sum()
        for _ in range(8):
            big.sum()
        for _ in range(2):
            linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
        samples.append(time.perf_counter() - t0)


def to_reference_speed(seconds, cal):
    """Seconds measured on this host, rescaled to the reference speed."""
    return seconds * CAL_REF_S / statistics.median(cal)


def run_op(op, prior, tracer):
    """Run one op; return (seconds, values or None, problems)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.call(prior)
        else:
            tracer.op = op.name
            out = tracer.call(op.span, lambda args, kwargs, result: op.attrs(result),
                              op.call, (prior,))
    except Exception as e:  # an op that raises is a failed op, and the run goes on
        return time.perf_counter() - t0, None, [f"raised {type(e).__name__}: {e}"]
    elapsed = time.perf_counter() - t0
    try:
        values = op.values(out)
        return elapsed, values, op.check(values)
    except Exception as e:  # a result that cannot be read or checked fails the op
        return elapsed, None, [f"result unusable: {type(e).__name__}: {e}"]


def run_pass(wl, reference, tracer=None, cal=None):
    """One pass over the op list.  Returns ({op: seconds}, values, problems).
    With a list `cal`, the calibration loop runs before each op, untimed by
    the op, and its times are appended to `cal`."""
    import workloads
    values, problems, wall = {}, {}, {}
    for op in wl.ops:
        if cal is not None:
            calibrate(cal)
        dt, v, probs = run_op(op, values, tracer)
        wall[op.name] = dt
        if v is not None:
            values[op.name] = v
        if v is not None and reference is not None:
            probs = probs + workloads.compare_reference(v, reference.get(op.name, {}))
        if probs:
            problems[op.name] = probs
    for name, problem in wl.cross_check(values):
        problems.setdefault(name, []).append(problem)
    return wall, values, problems


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def measure(wl, seconds, reference, traced):
    """Passes until `seconds` have elapsed.  Untraced runs time every pass;
    traced runs alternate untraced and traced passes.  The calibration loop
    runs before every op, its times kept apart for untraced and traced
    passes."""
    import tracing
    untraced, traced_runs, failures = [], [], {}
    cal, traced_cal = [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced and len(untraced) > len(traced_runs) else None
        if tracer is None:
            wall, _, problems = run_pass(wl, reference, cal=cal)
            untraced.append(wall)
        else:
            with tracer.installed():
                wall, _, problems = run_pass(wl, reference, tracer, traced_cal)
            traced_runs.append((wall, tracer))
        attempted += len(wl.ops)
        for name, probs in problems.items():
            failures.setdefault(name, []).append(probs)
        passes = len(untraced) + len(traced_runs)
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and (not traced or traced_runs) \
                and elapsed + elapsed / passes > seconds:
            break
    return untraced, traced_runs, attempted, failures, cal, traced_cal


def report_failures(wl, failures):
    for known in wl.known_failures:
        print(f"known baseline failure, not timed (see README.md): {known}")
    failed = sum(len(v) for v in failures.values())
    for name, per_pass in failures.items():
        print(f"FAILED op {wl.name}/{name} in {len(per_pass)} pass(es): "
              + "; ".join(per_pass[0]))
    return failed


def typical_pass(passes):
    """One pass with every op at its median time across the given passes.

    Host speed on a shared machine drifts between regimes; the per-op median
    keeps each op at its most common speed and drops a slow first pass."""
    return sum(statistics.median(p[op] for p in passes) for op in passes[0])


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args):
    wl, workdir = setup(args.workload, args.seed)
    import tracing
    reference = load_reference(args.workload, args.seed)
    machine = machine_block(args.seed)
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"ops={len(wl.ops)}")
    print("machine " + json.dumps(machine))
    try:
        setup_raw = probes = None
        if not args.trace:
            setup_raw, probes, setup_cal = time_setup(args.workload, args.seed)
        untraced, traced_runs, attempted, failures, cal, traced_cal = measure(
            wl, args.seconds, reference, args.trace)
        if traced_runs:
            OUT_DIR.mkdir(exist_ok=True)
            traced_runs[-1][1].write_jsonl(OUT_DIR / f"{wl.name}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = report_failures(wl, failures)
    walls = [sum(p.values()) for p in untraced]
    traced_passes = [p for p, _ in traced_runs]
    traced_walls = [sum(p.values()) for p in traced_passes]
    print(f"passes: {len(untraced)} untraced {[round(w, 4) for w in walls]} s"
          + (f", {len(traced_runs)} traced {[round(w, 4) for w in traced_walls]} s"
             if traced_runs else ""))
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f} ratio "
          f"(failed ops / attempted ops)")
    wall_raw = typical_pass(untraced)
    print(f"calibration loop: median {statistics.median(cal):.5f} s over {len(cal)} runs "
          f"(reference {CAL_REF_S} s)")
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {"wall_s": metric(to_reference_speed(wall_raw, cal), "s"),
                   "setup_s": metric(to_reference_speed(setup_raw, setup_cal), "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
        print("median op times: " + ", ".join(
            f"{op} {statistics.median(p[op] for p in untraced):.4f} s" for op in untraced[0]))
        print(f"as measured, before rescaling: typical pass {wall_raw:.4f} s, median pass "
              f"{statistics.median(walls):.4f} s, setup {setup_raw:.4f} s from probes "
              f"{[round(p, 4) for p in probes]} s with calibration median "
              f"{statistics.median(setup_cal):.5f} s")
    else:
        per_pass = [tracing.layer_metrics(t.spans) for _, t in traced_runs]
        metrics = {}
        for name, unit in tracing.LAYER_METRICS.items():
            if name == "bench.traced_wall_s":
                value = statistics.median(traced_walls)
            elif name == "bench.trace_overhead_frac":
                value = (to_reference_speed(typical_pass(traced_passes), traced_cal)
                         / to_reference_speed(wall_raw, cal) - 1.0)
            else:
                value = statistics.median(p[name] for p in per_pass)
            metrics[name] = metric(value, unit)
        self_sum = sum(metrics[m]["value"] for m in tracing.SELF_TIME_METRICS.values())
        print(f"layer self times sum to {self_sum:.4f} s; traced pass wall "
              f"{metrics['bench.traced_wall_s']['value']:.4f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload in a fresh process: all untraced, then all traced."""
    import_ltipc()
    import workloads
    status = 0
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            status |= subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    return status


def record_reference():
    """Rewrite reference.json from one untraced pass of every workload."""
    import_ltipc()
    import workloads
    out = {}
    for name in workloads.WORKLOADS:
        workdir = OUT_DIR / "reference"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.build(name, DEFAULT_SEED, str(workdir))
            _, values, problems = run_pass(wl, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            raise SystemExit(f"perfbench: {name} fails its checks: {problems}")
        out[name] = {op: workloads.reference_values(v) for op, v in values.items()}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("block-bounds", "alpha-sweep", "simulate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite reference.json from seed {DEFAULT_SEED}")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.setup_probe:
        _, workdir = setup(args.workload, args.seed)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload is None:
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
