"""Report serialization: bound rows, ordering rows, provenance lines."""
import math

import numpy as np
import pytest

import ltipc as lp
from ltipc.report import (
    BOUND_COLUMNS,
    BoundRow,
    fmt,
    instance_hash,
    ordering_row,
    provenance_line,
    sandwich_rows,
    write_bound_report,
    write_trace,
)


class TestBoundRow:
    def test_bits_derived_from_nats(self):
        row = BoundRow("inst", "capacity", 1, 1.0)
        assert row.value_bits == pytest.approx(1.0 / math.log(2))


class TestWriteBoundReport:
    def test_header_and_provenance(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [BoundRow("i", "capacity", 1, 0.5, gap=1e-9, iterations=10,
                         wallclock_ms=3)]
        write_bound_report(path, rows, "abc123", "config: test")
        lines = path.read_text().splitlines()
        assert lines[0] == f"# ltipc-{lp.__version__}, instance-sha256:abc123, config: test"
        assert lines[1] == ",".join(BOUND_COLUMNS)
        assert lines[2].startswith("i,capacity,1,0.5,")

    def test_hash_stable(self):
        assert instance_hash(b"x") == instance_hash(b"x")
        assert instance_hash(b"x") != instance_hash(b"y")
        assert len(instance_hash(b"x")) == 16

    def test_provenance_single_line(self):
        assert "\n" not in provenance_line("h", "c")


class TestVerdictRows:
    def test_ordering_margin(self):
        grid = lp.InputGrid.uniform(10.0, 3)
        verdict = lp.capacity_ordering_check(
            lp.ImpulseResponse((1.0, 0.0)), lp.ImpulseResponse((0.5, 0.5)),
            2.0, 10.0, 3.0, grid, config=lp.SolverConfig(tol=1e-8))
        row = ordering_row("inst", verdict)
        assert row.bound_name == "ordering"
        assert row.r == 1
        assert row.value_nats >= -1e-6

    def test_ordering_not_applicable_is_nan(self):
        grid = lp.InputGrid.uniform(10.0, 3)
        verdict = lp.capacity_ordering_check(
            lp.ImpulseResponse((0.7, 0.3)), lp.ImpulseResponse((0.5, 0.5)),
            2.0, 10.0, 3.0, grid, config=lp.SolverConfig(tol=1e-8))
        row = ordering_row("inst", verdict)
        assert row.bound_name == "ordering"
        assert math.isnan(row.value_nats)


class TestSandwichRows:
    def test_pair_labels_and_order(self):
        spec = lp.ChannelSpec(lp.ImpulseResponse((0.7, 0.3)), 2.0, 10.0, 3.0)
        bound = lp.block_sandwich_bounds(
            lp.BlockChannelSpec(spec, lp.InputGrid.uniform(10.0, 3), r=1),
            lp.SolverConfig(tol=1e-8))
        rows = sandwich_rows("inst", bound, wallclock_ms=5)
        assert rows[0].bound_name == "grid lower bound"
        assert rows[1].bound_name == "grid upper bound of the discretized problem"
        assert rows[0].value_nats <= rows[1].value_nats + 1e-12
        assert rows[0].r == rows[1].r == 1


def assert_trace_rows_written(trace, prefix):
    """The data rows written are the trace's own row streams."""
    paths = write_trace(prefix, trace, "abc123", "config: test")
    expected = (
        [f"{t},{s},{n},{fmt(float(v))}" for t, s, n, v in trace.input_rows()],
        [f"{t},{s},{n},{y}" for t, s, n, y in trace.output_rows()],
    )
    for path, header, rows in zip(paths, ("trial,slot,tx_id,x", "trial,slot,rx_id,y"),
                                  expected):
        lines = open(path, encoding="utf-8").read().split("\n")
        assert lines[0] == provenance_line("abc123", "config: test")
        assert lines[1] == header
        assert lines[2:] == rows + [""]


class TestWriteTrace:
    def test_rows_match_trace_row_streams(self, tmp_path):
        """A network with more receivers than transmitters, over 12 trials,
        so trial numbers of two digits sit in each trial's join separator,
        and counts of two digits."""
        impulses = np.zeros((2, 3, 2))
        impulses[0, 0] = (0.6, 0.4)
        impulses[1, 1] = (1.0, 0.0)
        impulses[0, 2] = (0.2, 0.1)
        net = lp.NetworkSpec(impulses=impulses, lambda0=2.0, amax=np.array([60.0, 60.0]),
                             alpha=np.array([10.0, 10.0]))
        x = np.vstack([np.resize([0.0, 60.0, 0.1], 7), np.resize([60.0, 1.0 / 3.0], 7)])
        trace = lp.simulate_network(net, x, lp.SimConfig(seed=4, n_slots=7, n_trials=12))
        assert trace.outputs.max() >= 10
        assert_trace_rows_written(trace, tmp_path / "t")

    def test_one_slot_trace(self, tmp_path):
        """One row per trial: the join has no separator to place."""
        spec = lp.ChannelSpec(lp.ImpulseResponse((1.0,)), 40.0, 5.0, 1.0)
        trace = lp.simulate_p2p(spec, np.array([2.5]), lp.SimConfig(seed=5, n_slots=1,
                                                                     n_trials=11))
        assert trace.outputs.shape == (11, 1, 1) and trace.outputs.max() >= 10
        assert_trace_rows_written(trace, tmp_path / "t")
