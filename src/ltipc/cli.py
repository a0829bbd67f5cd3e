"""Batch front end: JSON problem files in, CSV reports out.

Exit codes: 0 success, 1 invalid input (one machine-parsable line on
stderr), 2 solver non-convergence.  Outputs are deterministic for fixed
inputs and seeds, except the wallclock_ms diagnostic column.

Caveat stated here because the reports depend on it: bounds computed on an
input grid are bounds for the grid-restricted channel.  The "grid lower
bound" rows are valid lower bounds for the true capacity; the "grid upper
bound of the discretized problem" rows under-estimate the true C_r, since
restricting inputs to a grid can only shrink the maximum.  Refine --grid to
tighten them.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import _sweep, capacity_ordering_check
from .bounds import (
    block_sandwich_bounds,
    poisson_sym_bound_closed_form,
    sym_kl_max,
)
from .channel import (
    BlockChannelSpec,
    ChannelSpec,
    ImpulseResponse,
    InputGrid,
    _check_bytes,
    _checked_grid,
    build_block_channel,
    parse_instance,
)
from .errors import BudgetExceededError, ConvergenceError
from .report import (
    GRID_UPPER_LABEL,
    BoundRow,
    fmt,
    instance_hash,
    ordering_row,
    sandwich_rows,
    write_bound_report,
    write_sweep_report,
    write_trace,
)
from .simulate import SimConfig, simulate_p2p
from .solver import SolverConfig

_SIM_TRIALS = 200
_SIM_SLOTS = 32


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_values(raw: str) -> tuple:
    """Comma list of floats; 'a..b' and 'a..b..step' ranges are expanded."""
    out = []
    for part in raw.split(","):
        part = part.strip()
        if ".." in part:
            pieces = part.split("..")
            if len(pieces) == 2:
                a, b = float(pieces[0]), float(pieces[1])
                step = 1.0
            elif len(pieces) == 3:
                a, b = float(pieces[0]), float(pieces[1])
                step = float(pieces[2])
            else:
                raise ValueError(f"bad range syntax: {part!r}")
            # np.arange makes ceil(n) values, each held at once as a float64,
            # a Python float and its list slot, with the list's earlier
            # values.  nan ends are bad bounds too.
            n = (b + step * 0.5 - a) / step if step > 0 and b >= a else np.inf
            if not np.isfinite(n):
                raise ValueError(f"bad range bounds: {part!r}")
            n = len(out) + int(np.ceil(n))
            _check_bytes(n * (16 + sys.getsizeof(0.0)), f"--values up to range {part!r} holds "
                         f"{n:,} values", "use a shorter --values range or a larger step")
            out.extend(np.arange(a, b + step * 0.5, step).tolist())
        elif part:
            out.append(float(part))
    if not out:
        raise ValueError("empty --values list")
    return tuple(out)


@dataclass(frozen=True)
class Loaded:
    """An instance file with the command-line overrides applied."""

    spec: ChannelSpec
    grid_points: int
    tail_eps: float
    config: SolverConfig
    rs: tuple
    values: tuple
    seed: int
    axis: str | None
    out: str
    inst_id: str
    inst_hash: str
    config_desc: str

    def grid(self, spec: ChannelSpec) -> InputGrid:
        return _checked_grid(spec, self.grid_points, self.tail_eps)

    def block(self, spec: ChannelSpec, r: int) -> BlockChannelSpec:
        return BlockChannelSpec(spec, self.grid(spec), r=r, tail_eps=self.tail_eps)


def _load(args) -> Loaded:
    with open(args.instance, "rb") as fh:
        raw = fh.read()
    spec, grid_points, tail_eps = parse_instance(raw.decode("utf-8"))
    if args.grid is not None:
        if args.grid < 2:
            raise ValueError("--grid must be >= 2")
        grid_points = args.grid
    rs = tuple(args.r or (1,))
    if any(r < 1 for r in rs):
        raise ValueError("--r must be >= 1")
    config = SolverConfig() if args.tol is None else SolverConfig(tol=args.tol)
    values = _parse_values(args.values) if args.values else ()
    config_desc = (
        f"config: cmd={args.command} grid={grid_points} r={';'.join(map(str, rs))} "
        f"tol={fmt(config.tol)} seed={args.seed} axis={args.axis or '-'} "
        f"values={';'.join(fmt(v) for v in values) or '-'}")
    return Loaded(spec=spec, grid_points=grid_points, tail_eps=tail_eps,
                  config=config, rs=rs, values=values, seed=args.seed,
                  axis=args.axis, out=args.out,
                  inst_id=os.path.splitext(os.path.basename(args.instance))[0],
                  inst_hash=instance_hash(raw), config_desc=config_desc)


def _timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and its wall time in whole milliseconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, int((time.perf_counter() - t0) * 1000)


def _cmd_capacity(run: Loaded) -> list:
    r = run.rs[0]
    bound, ms = _timed(block_sandwich_bounds, run.block(run.spec, r), run.config)
    name = "capacity" if run.spec.impulse.order == 0 else GRID_UPPER_LABEL
    return [BoundRow(run.inst_id, name, r, bound.upper, gap=bound.gap,
                     iterations=bound.iterations, wallclock_ms=ms)]


def _cmd_bounds(run: Loaded) -> list:
    rows = []
    for r in run.rs:
        bound, ms = _timed(block_sandwich_bounds, run.block(run.spec, r), run.config)
        rows.extend(sandwich_rows(run.inst_id, bound, wallclock_ms=ms))
    return rows


def _cmd_symkl(run: Loaded) -> list:
    spec = run.spec
    channel = build_block_channel(run.block(spec, 1))
    res, ms = _timed(sym_kl_max, channel, alpha=spec.alpha, config=run.config,
                     seed=run.seed)
    # sym_kl_max certifies nothing, so the generic row's gap is nan.
    rows = [BoundRow(run.inst_id, "sym-kl upper bound", 1, res.value, gap=float("nan"),
                     wallclock_ms=ms)]
    if spec.impulse.order == 0 and spec.lambda0 > 0:
        # Intensity lambda0 + tap*x: peak tap*amax, budget tap*alpha; tap 0 carries nothing.
        tap = spec.impulse.taps[0]
        closed = 0.0 if tap == 0 else poisson_sym_bound_closed_form(
            tap * spec.amax, tap * spec.alpha, spec.lambda0)
        rows.append(BoundRow(run.inst_id, "sym-kl closed form", 0, closed))
    return rows


def _cmd_degrade_check(run: Loaded) -> list:
    if not run.values:
        raise ValueError("degrade-check requires --values with the taps of p'")
    spec = run.spec
    verdict, ms = _timed(
        capacity_ordering_check, spec.impulse.normalize(),
        ImpulseResponse(run.values).normalize(), spec.lambda0, spec.amax,
        spec.alpha, run.grid(spec), r=run.rs[0], config=run.config,
        tail_eps=run.tail_eps)
    rows = [ordering_row(run.inst_id, verdict)]
    if verdict.status != "not-applicable":
        rows.extend(sandwich_rows(f"{run.inst_id}|p", verdict.bound_p, wallclock_ms=ms))
        rows.extend(sandwich_rows(f"{run.inst_id}|p'", verdict.bound_p_prime))
    return rows


def _cmd_sweep(run: Loaded) -> None:
    if run.axis is None:
        raise ValueError("sweep requires --axis")
    if not run.values:
        raise ValueError("sweep requires --values")
    columns = _sweep(run.spec, run.axis, run.values, run.grid_points, run.rs, run.config,
                     run.tail_eps, ("lower", "upper"))
    write_sweep_report(run.out, run.axis, run.values, columns, run.inst_hash,
                       run.config_desc)


def _cmd_simulate(run: Loaded) -> None:
    if run.values:
        inputs = np.asarray(run.values, dtype=np.float64)
    else:
        inputs = np.full(_SIM_SLOTS, run.spec.alpha)
    sim = SimConfig(seed=run.seed, n_slots=inputs.size, n_trials=_SIM_TRIALS)
    write_trace(run.out, simulate_p2p(run.spec, inputs, sim), run.inst_hash,
                run.config_desc)


# Commands returning rows get one bound report from ``main``; the others
# write their own reports.
COMMANDS = {
    "capacity": _cmd_capacity,
    "bounds": _cmd_bounds,
    "symkl": _cmd_symkl,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "degrade-check": _cmd_degrade_check,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="ltipc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ltipc {__version__}")
    parser.add_argument("command", choices=tuple(COMMANDS))
    parser.add_argument("--instance", required=True, help="JSON problem file")
    parser.add_argument("--out", required=True, help="output CSV path (or prefix for simulate)")
    parser.add_argument("--grid", type=int, default=None, help="input grid points")
    parser.add_argument("--r", action="append", type=int, default=None,
                        help="block length r; repeatable")
    parser.add_argument("--tol", type=float, default=None, help="solver gap tolerance, nats")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--axis", default=None, help="sweep axis: alpha, amax or lambda0")
    parser.add_argument("--values", default=None,
                        help="comma list, ranges a..b or a..b..step allowed")
    return parser


# Built once: parse_args keeps no state between calls, and a fresh list
# serves each call's --r.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        run = _load(args)
        rows = COMMANDS[args.command](run)
        if rows is not None:
            write_bound_report(args.out, rows, run.inst_hash, run.config_desc)
        return 0
    except ConvergenceError as e:
        print(f"LTIPC-ERROR non-convergence: {e}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ValueError, OSError) as e:
        print(f"LTIPC-ERROR invalid-input: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
