"""CSV reports: bound tables, sweep tables, and trace exports.

Every file starts with one provenance comment line
``# <tool-version>, <instance-hash>, <config>`` followed by a header row.
Numbers are printed with repr-style shortest round-trip formatting so a
rerun with identical inputs reproduces the bytes (wallclock_ms excepted).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from . import __version__

BOUND_COLUMNS = ("instance_id", "bound_name", "r", "value_nats", "value_bits",
                 "gap", "iterations", "wallclock_ms")

# Labels mandated for grid-restricted block bounds: the lower value is a
# valid capacity lower bound, while the upper value under-estimates the true
# C_r because a grid restriction can only shrink the maximum.
GRID_LOWER_LABEL = "grid lower bound"
GRID_UPPER_LABEL = "grid upper bound of the discretized problem"


@dataclass(frozen=True)
class BoundRow:
    instance_id: str
    bound_name: str
    r: int
    value_nats: float
    gap: float = 0.0
    iterations: int = 0
    wallclock_ms: int = 0

    @property
    def value_bits(self) -> float:
        return self.value_nats / math.log(2)


def fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def instance_hash(raw_bytes: bytes) -> str:
    return hashlib.sha256(raw_bytes).hexdigest()[:16]


def provenance_line(inst_hash: str, config_desc: str) -> str:
    return f"# ltipc-{__version__}, instance-sha256:{inst_hash}, {config_desc}"


def write_bound_report(path, rows, inst_hash: str, config_desc: str):
    lines = [provenance_line(inst_hash, config_desc), ",".join(BOUND_COLUMNS)]
    for row in rows:
        lines.append(",".join([
            row.instance_id, row.bound_name, str(row.r),
            fmt(row.value_nats), fmt(row.value_bits), fmt(row.gap),
            str(row.iterations), str(row.wallclock_ms)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_report(path, axis: str, values, columns: dict,
                       inst_hash: str, config_desc: str):
    """Wide plot-ready table: one row per axis value, one column per bound."""
    names = list(columns)
    lines = [provenance_line(inst_hash, config_desc), ",".join([axis] + names)]
    for i, v in enumerate(values):
        lines.append(",".join([fmt(float(v))] + [fmt(columns[n][i]) for n in names]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace(prefix, trace, inst_hash: str, config_desc: str):
    """Two tables: <prefix>.inputs.csv and <prefix>.outputs.csv, holding
    the rows of trace.input_rows() and trace.output_rows().

    A trial's text is built by one join, plus one %-format for its counts:
    the text after "trial," of each input row is the same in every trial,
    and so is the "slot,rx_id," of each output row, so the trial number
    goes in the join's separator."""
    n_trials, n_rx, n_slots = trace.outputs.shape
    inputs = [f"{slot},{tx},{fmt(x)}" for tx, row in enumerate(trace.inputs.tolist())
              for slot, x in enumerate(row)]
    keys = [f"{slot},{rx}," for rx in range(n_rx) for slot in range(n_slots)]
    outputs = trace.outputs.reshape(n_trials, -1)
    tables = (
        ("inputs", "trial,slot,tx_id,x",
         lambda t: f"{t}," + f"\n{t},".join(inputs) + "\n"),
        ("outputs", "trial,slot,rx_id,y",
         lambda t: (f"{t}," + f"%d\n{t},".join(keys) + "%d\n") % tuple(outputs[t].tolist())),
    )
    paths = []
    for name, header, trial_text in tables:
        path = f"{prefix}.{name}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{provenance_line(inst_hash, config_desc)}\n{header}\n")
            for trial in range(n_trials):
                fh.write(trial_text(trial))
        paths.append(path)
    return tuple(paths)


def sandwich_rows(instance_id: str, bound, wallclock_ms: int = 0):
    """BoundReport rows for one solved sandwich pair."""
    return [
        BoundRow(instance_id, GRID_LOWER_LABEL, bound.r, bound.lower,
                 gap=bound.gap, iterations=bound.iterations,
                 wallclock_ms=wallclock_ms),
        BoundRow(instance_id, GRID_UPPER_LABEL, bound.r, bound.upper,
                 gap=bound.gap, iterations=bound.iterations,
                 wallclock_ms=wallclock_ms),
    ]


def ordering_row(instance_id: str, verdict) -> BoundRow:
    """The row of an analysis.OrderingVerdict: the margin
    upper(p) - upper(p'), or nan when the pair does not factor."""
    if verdict.status == "not-applicable":
        return BoundRow(instance_id, "ordering", 0, float("nan"))
    margin = verdict.bound_p.upper - verdict.bound_p_prime.upper
    return BoundRow(instance_id, "ordering", verdict.bound_p.r, margin)
