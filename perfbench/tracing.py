"""Spans around the public layer functions of ltipc, recorded from outside
the package.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, by a wrapper stored at the module attribute its caller looks up at
call time; the original attributes are put back when the block exits.
``solver.ba_capacity`` calls itself through its own module global after the
duplicate-row merge, and that name is deliberately left alone so a merged
solve counts as one solver call.

A span is ``[name, start, end, parent, op, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or None),
``op`` the benchmark op that caused it.  Spans stay in memory until
``write_jsonl``.
"""
from __future__ import annotations

import contextlib
import json
import os
import time

import ltipc.analysis
import ltipc.bounds
import ltipc.cli
import ltipc.simulate
from ltipc.errors import ConvergenceError

_MB = 1e6
_ENTRY_BYTES = 8  # float64 transition entries


def _channel_attrs(args, kwargs, result):
    return {"entries": int(result.transition.size)}


def solver_work(channel, results):
    """Iterations, history length and iterations x entries of solver results."""
    iterations = sum(r.iterations for r in results)
    return {"iterations": iterations,
            "useful": sum(len(r.history) for r in results),
            "work": iterations * int(channel.transition.size)}


def _solver_attrs(args, kwargs, result):
    return solver_work(args[0] if args else kwargs["channel"], [result])


def _draw_attrs(args, kwargs, result):
    return {"draws": int(result.size)}


def report_attrs(rows, paths):
    return {"rows": rows, "bytes": sum(os.path.getsize(p) for p in paths)}


def _bound_report_attrs(args, kwargs, result):
    return report_attrs(len(args[1]), [args[0]])


def _sweep_report_attrs(args, kwargs, result):
    return report_attrs(len(args[2]), [args[0]])


def _trace_report_attrs(args, kwargs, result):
    trace = args[1]
    rows = trace.outputs.shape[0] * trace.inputs.size + trace.outputs.size
    return report_attrs(rows, result)


def _no_attrs(args, kwargs, result):
    return {}


# (module, attribute, span name, attribute extractor)
TARGETS = (
    (ltipc.bounds, "build_block_channel", "channel.build", _channel_attrs),
    (ltipc.bounds, "ba_capacity", "solver.ba", _solver_attrs),
    (ltipc.cli, "block_sandwich_bounds", "bounds.sandwich", _no_attrs),
    (ltipc.analysis, "block_sandwich_bounds", "bounds.sandwich", _no_attrs),
    (ltipc.bounds, "linprog", "bounds.lp", _no_attrs),
    (ltipc.cli, "sym_kl_max", "bounds.symkl", _no_attrs),
    (ltipc.cli, "capacity_ordering_check", "analysis.ordering", _no_attrs),
    (ltipc.cli, "simulate_p2p", "simulate.p2p", _no_attrs),
    (ltipc.simulate, "poisson_draw", "simulate.draw", _draw_attrs),
    (ltipc.cli, "write_bound_report", "report.write", _bound_report_attrs),
    (ltipc.cli, "write_sweep_report", "report.write", _sweep_report_attrs),
    (ltipc.cli, "write_trace", "report.write", _trace_report_attrs),
)

class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, attrs, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ConvergenceError as e:
            span[2] = time.perf_counter()
            span[5] = {"error": "ConvergenceError", "iterations": int(e.iterations)}
            raise
        except BaseException as e:
            span[2] = time.perf_counter()
            span[5] = {"error": type(e).__name__}
            raise
        finally:
            self._stack.pop()
        span[2] = time.perf_counter()
        span[5] = attrs(args, kwargs, result)
        return result

    def _wrap(self, name, attrs, fn):
        def traced(*args, **kwargs):
            return self.call(name, attrs, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, attrs), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, attrs, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


# Self time of these spans is reported under these metric names.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "channel.build": "channel.build_s",
    "solver.ba": "solver.ba_s",
    "bounds.sandwich": "bounds.sandwich_s",
    "bounds.stationary": "bounds.stationary_s",
    "bounds.lp": "bounds.lp_s",
    "bounds.symkl": "bounds.symkl_s",
    "analysis.ordering": "analysis.ordering_s",
    "simulate.p2p": "simulate.p2p_s",
    "simulate.draw": "simulate.draw_s",
    "simulate.plugin": "simulate.plugin_s",
    "report.write": "report.write_s",
}

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "cli.self_s": "s", "cli.calls": "count",
    "channel.build_s": "s", "channel.calls": "count", "channel.entries": "count",
    "channel.max_matrix_mb": "MB",
    "solver.ba_s": "s", "solver.calls": "count", "solver.iterations": "count",
    "solver.useful_iter_frac": "ratio", "solver.ns_per_entry_iter": "ns",
    "solver.failed": "count",
    "bounds.sandwich_s": "s", "bounds.stationary_s": "s",
    "bounds.stationary_failed": "count", "bounds.fw_iterations": "count",
    "bounds.lp_calls": "count", "bounds.lp_s": "s",
    "bounds.symkl_s": "s", "bounds.symkl_calls": "count", "bounds.symkl_max_call_s": "s",
    "analysis.ordering_s": "s", "analysis.calls": "count",
    "simulate.p2p_s": "s", "simulate.draw_s": "s", "simulate.draw_calls": "count",
    "simulate.draws": "count", "simulate.draws_per_call": "count",
    "simulate.plugin_s": "s",
    "report.write_s": "s", "report.rows": "count", "report.mb": "MB",
    "bench.traced_wall_s": "s", "bench.trace_overhead_frac": "ratio",
}


def layer_metrics(spans):
    """Per-layer totals of one traced pass (bench.* metrics excluded)."""
    out = {name: 0.0 for name in LAYER_METRICS if not name.startswith("bench.")}
    calls = {}
    own = self_times(spans)
    iterations = useful = work = 0
    for span, t_self in zip(spans, own):
        name, start, end, attrs = span[0], span[1], span[2], span[5]
        calls[name] = calls.get(name, 0) + 1
        out[SELF_TIME_METRICS[name]] += t_self
        stalled = attrs.get("error") == "ConvergenceError"
        if name == "solver.ba":
            out["solver.failed"] += stalled
        elif name == "bounds.stationary":
            out["bounds.stationary_failed"] += stalled
            out["bounds.fw_iterations"] += attrs.get("iterations", 0)
        elif name == "bounds.symkl":
            out["bounds.symkl_max_call_s"] = max(out["bounds.symkl_max_call_s"], end - start)
        if "error" in attrs:
            continue
        if name == "channel.build":
            out["channel.entries"] += attrs["entries"]
            out["channel.max_matrix_mb"] = max(out["channel.max_matrix_mb"],
                                               attrs["entries"] * _ENTRY_BYTES / _MB)
        elif name == "solver.ba":
            iterations += attrs["iterations"]
            useful += attrs["useful"]
            work += attrs["work"]
        elif name == "simulate.draw":
            out["simulate.draws"] += attrs["draws"]
        elif name == "report.write":
            out["report.rows"] += attrs["rows"]
            out["report.mb"] += attrs["bytes"] / _MB
    for metric, span_name in (("cli.calls", "cli.main"), ("channel.calls", "channel.build"),
                              ("solver.calls", "solver.ba"), ("bounds.lp_calls", "bounds.lp"),
                              ("bounds.symkl_calls", "bounds.symkl"),
                              ("analysis.calls", "analysis.ordering"),
                              ("simulate.draw_calls", "simulate.draw")):
        out[metric] = calls.get(span_name, 0)
    out["solver.iterations"] = iterations
    out["solver.useful_iter_frac"] = useful / iterations if iterations else 0.0
    out["solver.ns_per_entry_iter"] = out["solver.ba_s"] * 1e9 / work if work else 0.0
    out["simulate.draws_per_call"] = (out["simulate.draws"] / out["simulate.draw_calls"]
                                      if out["simulate.draw_calls"] else 0.0)
    return out
