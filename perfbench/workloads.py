"""The three benchmark workloads: their inputs, their op lists and the
checks each op's result must pass.

An op is one call into a public entry point of ltipc: ``ltipc.cli.main`` for
ops a CLI command performs exactly, the exported library function otherwise.
Every op returns named values: bound values and estimates in nats, SHA-256
digests of simulator outputs, and diagnostics whose names start with ``_``.
Only the first two kinds are compared against the recorded reference.

Why the solver instances are fixed anchors rather than drawn from the seed:
the constrained Blahut-Arimoto solver's cost is erratic in the instance
parameters.  Moving every parameter of one grid-3 ``bounds --r 1 --r 2``
instance by at most 3% changed its cost from 0.4 s to 37 s (1.3M
iterations), and seeded degrade-check pairs hit the 200k-iteration cap.  A
run-to-run spread like that would swamp any change a later optimisation
makes.  So ``block-bounds`` and ``alpha-sweep`` solve fixed, vetted
instances, and the seed sets their op order, their instance names and the
sym-KL starts; ``simulate``, whose cost is smooth in its inputs, draws its
instance and waveforms from the seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ltipc
import ltipc.bounds
import ltipc.cli
import ltipc.report
import ltipc.simulate
import ltipc.solver
import tracing

WORKLOADS = ("block-bounds", "alpha-sweep", "simulate")

TOL = 1e-9            # solver gap tolerance the CLI and SolverConfig default to
VALUE_TOL = 1e-6      # nats a bound value may move before it counts as changed
Z_MAX = 6.0           # standard errors a Monte Carlo mean may stray


@dataclass
class Op:
    name: str
    span: str                                   # span the op's own call opens
    call: Callable[[dict], object]              # gets the values of earlier ops
    values: Callable[[object], dict]
    check: Callable[[dict], list] = field(default=lambda v: [])
    attrs: Callable[[object], dict] = field(default=lambda result: {})  # span attributes


@dataclass
class Workload:
    name: str
    ops: list
    cross_check: Callable[[dict], list] = field(default=lambda values: [])
    layers: tuple = ()      # per-layer metrics that must see calls here
    known_failures: tuple = ()  # baseline failures kept out of the timed ops


# ---------------------------------------------------------------------------
# Shared helpers


def _write_instance(workdir, inst_id, **fields):
    path = os.path.join(workdir, f"{inst_id}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fields, fh)
    return path


def _cli(argv):
    return lambda prior: ltipc.cli.main(argv)


def _exit_ok(rc):
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")


_SHORT = {ltipc.report.GRID_LOWER_LABEL: "lower", ltipc.report.GRID_UPPER_LABEL: "upper",
          "ordering": "margin"}


def read_bound_report(path):
    """{'<side>lower@r1': value, '_gap.<side>@r1': gap, ...} from a bound CSV.

    <side> is '' for the instance itself and 'p.' / "p'." for the two
    sides of a degrade-check."""
    out = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    for inst_id, name, r, value, _bits, gap, *_ in rows[1:]:
        side = inst_id.split("|")[1] + "." if "|" in inst_id else ""
        out[f"{side}{_SHORT[name]}@r{r}"] = float(value)
        if name != "ordering":
            out[f"_gap.{side}@r{r}"] = float(gap)
    return out


def _sandwich_problems(v, k):
    """lower = upper*r/(k+r), 0 <= lower <= upper and gap <= tol, per side and r."""
    problems = []
    for key, upper in v.items():
        if "upper@r" not in key:
            continue
        side, r = key.split("upper@r")
        r = int(r)
        lower, gap = v[f"{side}lower@r{r}"], v[f"_gap.{side}@r{r}"]
        if not math.isclose(lower, upper * r / (k + r), rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"{side}lower@r{r}={lower!r} is not upper*r/(k+r)")
        if not 0.0 <= lower <= upper:
            problems.append(f"{side}r{r}: not 0 <= lower <= upper")
        if gap > TOL:
            problems.append(f"{side}r{r}: gap {gap:.3e} above tol {TOL}")
    return problems


def data_digest(path):
    """SHA-256 of a CSV file after its provenance line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return hashlib.sha256(raw.split(b"\n", 1)[1]).hexdigest()


# ---------------------------------------------------------------------------
# block-bounds: independent ISI instances, nearly all work in the solver

# (id, taps, lambda0, amax, alpha).  Grid 3, r = 1 and 2.  Vetted: each
# converges; b1 and b3 need the multiplier search at r=1, b2 far less.
_BLOCK = (
    ("b1", (0.7, 0.3), 5.0, 40.0, 5.0),
    ("b2", (0.8, 0.2), 2.0, 24.0, 14.0),
    ("b3", (0.65, 0.35), 8.0, 50.0, 30.0),
)
# degrade-check of p = taps against p' = p * q on grid 3; the zero-padded p
# has duplicate rows, so the solver's merge path runs.
_DEGRADE = ("d1", (0.6, 0.4), 3.0, 30.0, 6.0, (0.6, 0.4))
# On-off keying, grid 2, r = 3: a 16 x 59,319 transition matrix (7.6 MB),
# larger than a 2 MiB L2, so its iterations are bandwidth-bound.
_OOK = ("ook", (0.7, 0.3), 1.0, 10.0, 5.0)


def _block_bounds(seed, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for inst, taps, lam0, amax, alpha in _BLOCK:
        path = _write_instance(workdir, f"s{seed}-{inst}", impulse=list(taps),
                               lambda0=lam0, amax=amax, alpha=alpha)
        out = os.path.join(workdir, f"{inst}.csv")
        ops.append(_bounds_op(f"bounds:{inst}", path, out, ["--grid", "3", "--r", "1", "--r", "2"],
                              k=1))

    inst, taps, lam0, amax, alpha, q = _DEGRADE
    path = _write_instance(workdir, f"s{seed}-{inst}", impulse=list(taps), lambda0=lam0,
                           amax=amax, alpha=alpha)
    out = os.path.join(workdir, f"{inst}.csv")
    p_prime = np.convolve(taps, q)

    def degrade_values(rc):
        _exit_ok(rc)
        return read_bound_report(out)

    def degrade_check(v):
        problems = _sandwich_problems(v, k=p_prime.size - 1)
        if v["margin@r1"] < -VALUE_TOL:
            problems.append(f"ordering margin {v['margin@r1']:.3e} below -{VALUE_TOL}")
        return problems

    ops.append(Op(f"degrade-check:{inst}", "cli.main",
                  _cli(["degrade-check", "--instance", path, "--out", out, "--grid", "3",
                        "--values", ",".join(repr(float(t)) for t in p_prime)]),
                  degrade_values, degrade_check))

    inst, taps, lam0, amax, alpha = _OOK
    path = _write_instance(workdir, f"s{seed}-{inst}", impulse=list(taps), lambda0=lam0,
                           amax=amax, alpha=alpha)
    ops.append(_bounds_op(f"bounds:{inst}", path, os.path.join(workdir, f"{inst}.csv"),
                          ["--grid", "2", "--r", "3"], k=1))

    order = rng.permutation(len(ops))
    return Workload("block-bounds", [ops[i] for i in order],
                    layers=("cli.calls", "channel.calls", "solver.calls", "analysis.calls",
                            "report.rows"),
                    known_failures=(
                        "degrade-check p=(0.7,0.3) p'=p*(0.7,0.3) lambda0=5 amax=30 alpha=9 "
                        "--grid 3: exit 2, Blahut-Arimoto at its 200k-iteration cap",
                        "degrade-check p=(0.8,0.2) p'=p*(0.7,0.3) lambda0=2 amax=24 alpha=14 "
                        "--grid 3: 'flagged', margin -8.9e-4 below -1e-6"))


def _bounds_op(name, path, out, flags, k):
    def values(rc):
        _exit_ok(rc)
        return read_bound_report(out)

    return Op(name, "cli.main",
              _cli(["bounds", "--instance", path, "--out", out] + flags),
              values, lambda v: _sandwich_problems(v, k))


# ---------------------------------------------------------------------------
# alpha-sweep: bounds versus budget on one instance, mostly the bounds layer

_SWEEP = ((0.7, 0.3), 5.0, 40.0)     # taps, lambda0, amax
_SWEEP_GRID = 3
_SWEEP_FRACTIONS = (0.1, 0.25, 0.55)  # budgets as fractions of amax


def _fw_gap_check(v):
    return [f"FW gap {v['_fw_gap']:.3e} above tol"] if v["_fw_gap"] > TOL else []


def _fw_attrs(res):
    return {"iterations": int(res.iterations)}


def _alpha_sweep(seed, workdir):
    taps, lam0, amax = _SWEEP
    alphas = [f * amax for f in _SWEEP_FRACTIONS]
    path = _write_instance(workdir, f"s{seed}-sweep", impulse=list(taps), lambda0=lam0,
                           amax=amax, alpha=alphas[0], grid_points=_SWEEP_GRID)
    with open(path, "rb") as fh:
        inst_hash = ltipc.report.instance_hash(fh.read())
    grid = ltipc.InputGrid.uniform(amax, _SWEEP_GRID)
    specs = [ltipc.ChannelSpec(ltipc.ImpulseResponse(taps), lam0, amax, a) for a in alphas]
    channel = ltipc.build_block_channel(ltipc.BlockChannelSpec(specs[0], grid, r=1))
    symkl_seed = int(np.random.default_rng(seed).integers(2 ** 32))

    def curve_values(results):
        v = {}
        for i, res in enumerate(results):
            v[f"c1@a{i}"] = res.value
            v[f"_gap@a{i}"] = res.gap
        return v

    def curve_check(v):
        return [f"C_1 gap {v[f'_gap@a{i}']:.3e} above tol at budget {i}"
                for i in range(len(alphas)) if v[f"_gap@a{i}"] > TOL]

    ops = [Op("capacity_cost_curve", "solver.ba",
              lambda prior: ltipc.solver.capacity_cost_curve(channel, alphas),
              curve_values, curve_check,
              lambda results: tracing.solver_work(channel, results))]
    for i, spec in enumerate(specs):
        ops.append(Op(f"stationary_upper_bound@a{i}", "bounds.stationary",
                      lambda prior, s=spec: ltipc.bounds.stationary_upper_bound(s, grid),
                      lambda res: {"upper": res.upper, "_fw_gap": res.fw_gap},
                      _fw_gap_check, _fw_attrs))
        ops.append(Op(f"stationary_lower_bound@a{i}", "bounds.stationary",
                      lambda prior, s=spec: ltipc.bounds.stationary_lower_bound(s, grid),
                      lambda res: {"lower": res.lower, "_fw_gap": res.fw_gap},
                      _fw_gap_check, _fw_attrs))
        ops.append(Op(f"sym_kl_max@a{i}", "bounds.symkl",
                      lambda prior, a=spec.alpha: ltipc.bounds.sym_kl_max(
                          channel, alpha=a, seed=symkl_seed),
                      lambda res: {"symkl": res.value}))

    report_path = os.path.join(workdir, "sweep.csv")
    columns = (("C_1", "capacity_cost_curve", "c1@a{i}"),
               ("stationary_lower", "stationary_lower_bound@a{i}", "lower"),
               ("stationary_upper", "stationary_upper_bound@a{i}", "upper"),
               ("sym_kl", "sym_kl_max@a{i}", "symkl"))

    def sweep_columns(prior):
        cols = {}
        for col, op, key in columns:
            cols[col] = [prior.get(op.format(i=i), {}).get(key.format(i=i), math.nan)
                         for i in range(len(alphas))]
        return cols

    def write_report(prior):
        cols = sweep_columns(prior)
        ltipc.report.write_sweep_report(report_path, "alpha", alphas, cols, inst_hash,
                                        f"config: perfbench alpha-sweep grid={_SWEEP_GRID}")
        return cols

    def report_values(cols):
        with open(report_path, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
        header, body = rows[0], rows[1:]
        written = {name: [float(row[j]) for row in body] for j, name in enumerate(header)}
        same = all(np.array_equal(written[c], cols[c], equal_nan=True) for c in cols)
        return {"_rows": len(body), "_round_trip": same}

    ops.append(Op("write_sweep_report", "report.write", write_report, report_values,
                  lambda v: [] if v["_round_trip"] and v["_rows"] == len(alphas)
                  else ["sweep report does not read back as written"],
                  lambda cols: tracing.report_attrs(len(alphas), [report_path])))

    def cross_check(values):
        problems = []
        curve = values.get("capacity_cost_curve")
        for i in range(len(alphas)):
            up = values.get(f"stationary_upper_bound@a{i}")
            lo = values.get(f"stationary_lower_bound@a{i}")
            sk = values.get(f"sym_kl_max@a{i}")
            c1 = curve[f"c1@a{i}"] if curve else None
            if up and lo and lo["lower"] > up["upper"] + VALUE_TOL:
                problems.append((f"stationary_lower_bound@a{i}",
                                 "stationary lower above stationary upper"))
            if up and c1 is not None and up["upper"] > c1 + VALUE_TOL:
                problems.append((f"stationary_upper_bound@a{i}", "stationary upper above C_1"))
            if sk and c1 is not None and sk["symkl"] < c1 - VALUE_TOL:
                problems.append((f"sym_kl_max@a{i}", "sym-KL maximum below C_1"))
        return problems

    return Workload("alpha-sweep", ops, cross_check,
                    layers=("solver.calls", "bounds.stationary_s", "bounds.fw_iterations",
                            "bounds.lp_calls", "bounds.symkl_calls", "report.rows"),
                    known_failures=tuple(
                        f"stationary_upper_bound taps=(0.7,0.3) lambda0=5 amax=40 grid=4 "
                        f"alpha={a}: ConvergenceError (stall)" for a in (10, 16, 22, 30)))


# ---------------------------------------------------------------------------
# simulate: Monte Carlo traffic, all work in the simulator and the reporter

_SIM_GRID = 9
_IID_SLOTS = 128           # i.i.d. waveforms: nearly every slot its own intensity
_OOK_SLOTS = 256           # on-off waveforms: eight intensities in all
_SIM_TRIALS = 200          # what the CLI simulate command runs
_PLUGIN_SAMPLES = 200_000
_WAVE_BASE_SEED = 20141014   # fixed shuffles the simulate waveforms are shifts of


def _simulate(seed, workdir):
    rng = np.random.default_rng(seed)
    # Narrow ranges: the inversion sampler's cost grows with intensities
    # below the cutoff, so a wide amax or lambda0 range moves wall_s with
    # the seed.  Peak intensities straddle the cutoff at 30.
    t0 = rng.uniform(0.48, 0.52)
    t1 = rng.uniform(0.28, 0.32)
    taps = (t0, t1, 1.0 - t0 - t1)
    lam0 = rng.uniform(4.5, 5.5)
    amax = rng.uniform(78.0, 82.0)
    path = _write_instance(workdir, f"s{seed}-sim", impulse=list(taps), lambda0=lam0,
                           amax=amax, alpha=amax / 2, grid_points=_SIM_GRID)
    points = np.linspace(0.0, amax, _SIM_GRID)
    # Each waveform is a seeded cyclic shift of a fixed shuffle of a fixed
    # multiset: every grid point 14 or 15 times (i.i.d.), or off and on 128
    # times each (on-off).  A shift keeps all but two of the (x_i, x_i-1,
    # x_i-2) triples, and so nearly the same set of intensities.  With free
    # draws the seed set how many slots fall below the sampler's cutoff,
    # and so the op's cost: in one process, seed 11's two i.i.d. ops took
    # 1.71 and 1.69 s, seed 13's 1.30 and 1.41 s.
    base = np.random.default_rng(_WAVE_BASE_SEED)
    waves = []
    for name, values, slots in (("iid0", points, _IID_SLOTS), ("iid1", points, _IID_SLOTS),
                                ("ook0", points[[0, -1]], _OOK_SLOTS),
                                ("ook1", points[[0, -1]], _OOK_SLOTS)):
        x = base.permutation(np.resize(values, slots))
        waves.append((name, np.roll(x, rng.integers(slots))))
    ops = []
    for name, x in waves:
        prefix = os.path.join(workdir, name)
        lam = lam0 + np.convolve(x, taps)[:x.size]
        ops.append(_simulate_op(f"simulate:{name}", path, prefix, x, lam,
                                int(rng.integers(2 ** 32))))

    single = ltipc.ChannelSpec(ltipc.ImpulseResponse((1.0,)), lam0, amax, amax / 2)
    channel = ltipc.build_memoryless_channel(single, ltipc.InputGrid(tuple(points)))
    law = np.full(channel.n_inputs, 1.0 / channel.n_inputs)
    exact = ltipc.mutual_information(channel, law)
    plugin_seed = int(rng.integers(2 ** 32))

    def plugin_values(est):
        return {"plugin_mi": est.value, "_stderr": est.stderr, "_bias": est.bias}

    def plugin_check(v):
        if abs(v["plugin_mi"] - exact) > v["_bias"] + Z_MAX * v["_stderr"]:
            return [f"plug-in estimate {v['plugin_mi']:.6f} too far from I = {exact:.6f}"]
        return []

    ops.append(Op("plugin_mi_estimate", "simulate.plugin",
                  lambda prior: ltipc.simulate.plugin_mi_estimate(
                      channel, law, _PLUGIN_SAMPLES, plugin_seed),
                  plugin_values, plugin_check))
    return Workload("simulate", ops,
                    layers=("cli.calls", "simulate.p2p_s", "simulate.draw_calls",
                            "simulate.plugin_s", "report.rows"))


def _simulate_op(name, path, prefix, x, lam, sim_seed):
    argv = ["simulate", "--instance", path, "--out", prefix, "--seed", str(sim_seed),
            "--values", ",".join(repr(float(v)) for v in x)]

    def values(rc):
        _exit_ok(rc)
        outputs = f"{prefix}.outputs.csv"
        y = np.loadtxt(outputs, delimiter=",", skiprows=2, dtype=np.int64)
        counts = y[:, 3].reshape(_SIM_TRIALS, x.size)
        z = np.abs(counts.mean(axis=0) - lam) / np.sqrt(lam / _SIM_TRIALS)
        return {"inputs.sha256": data_digest(f"{prefix}.inputs.csv"),
                "outputs.sha256": data_digest(outputs), "_max_z": float(z.max())}

    def check(v):
        if v["_max_z"] > Z_MAX:
            return [f"a slot mean is {v['_max_z']:.1f} standard errors from its intensity"]
        return []

    return Op(name, "cli.main", _cli(argv), values, check)


_BUILDERS = {"block-bounds": _block_bounds, "alpha-sweep": _alpha_sweep,
             "simulate": _simulate}


def build(name, seed, workdir):
    """The workload's inputs, written under workdir, and its op list."""
    return _BUILDERS[name](seed, workdir)


def compare_reference(values, reference):
    """Problems where an op's values differ from its recorded reference."""
    problems = []
    for key, want in reference.items():
        got = values.get(key)
        if isinstance(want, str):
            if got != want:
                problems.append(f"{key} digest changed")
        elif got is None or not abs(got - want) <= VALUE_TOL:
            problems.append(f"{key}={got!r} moved from reference {want!r}")
    return problems


def reference_values(values):
    """The part of an op's values the reference records."""
    return {k: v for k, v in values.items() if not k.startswith("_")}
