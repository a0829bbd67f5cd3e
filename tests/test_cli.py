"""Command-line front end: dispatch, CSV contracts, exit codes,
idempotence."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ltipc as lp
import ltipc.cli as cli
from ltipc import ImpulseResponse, channel, monotonicity_sweep
from ltipc.channel import _block_factors
from ltipc.cli import _parse_values, main
from ltipc.errors import BudgetExceededError, ConvergenceError
from ltipc.report import BOUND_COLUMNS, GRID_UPPER_LABEL


@pytest.fixture()
def memoryless_instance(tmp_path):
    doc = {"impulse": [1.0], "lambda0": 2.0, "amax": 10.0, "alpha": 3.0,
           "grid_points": 4, "tail_eps": 1e-10}
    path = tmp_path / "memoryless.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def isi_instance(tmp_path):
    doc = {"impulse": [0.7, 0.3], "lambda0": 2.0, "amax": 10.0, "alpha": 3.0,
           "grid_points": 3, "tail_eps": 1e-10}
    path = tmp_path / "isi.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_report(path):
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# ltipc-")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return header, rows


class TestParseValues:
    def test_comma_list(self):
        assert _parse_values("1,2.5,4") == (1.0, 2.5, 4.0)

    def test_range(self):
        assert _parse_values("1..4") == (1.0, 2.0, 3.0, 4.0)

    def test_range_with_step(self):
        assert _parse_values("0..1..0.5") == (0.0, 0.5, 1.0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_values("5..1")

    def test_ranges_counted_together(self, monkeypatch):
        """Each range fits a budget of 200 values; the two together do not,
        and are refused before the second is expanded."""
        monkeypatch.setattr(channel, "DEFAULT_ENTRY_BUDGET", 1000)  # 8,000 bytes
        assert len(_parse_values("0..150")) == 151
        with pytest.raises(BudgetExceededError, match="302 values.*--values"):
            _parse_values("0..150,0..150")


class TestCapacityCommand:
    def test_one_row_nats_and_bits(self, memoryless_instance, tmp_path):
        out = str(tmp_path / "cap.csv")
        rc = main(["capacity", "--instance", memoryless_instance, "--out", out,
                   "--tol", "1e-8"])
        assert rc == 0
        header, rows = read_report(out)
        assert header == list(BOUND_COLUMNS)
        assert len(rows) == 1
        row = rows[0]
        assert row["bound_name"] == "capacity"
        nats, bits = float(row["value_nats"]), float(row["value_bits"])
        assert abs(bits - nats / math.log(2)) < 1e-12
        assert 0 < nats < math.log(4)

    def test_budget_at_peak_solves(self, tmp_path):
        """alpha = amax leaves the budget slack at every iterate, where plain
        Blahut-Arimoto's gap decays only like O(1/t)."""
        doc = {"impulse": [0.7, 0.3], "lambda0": 5.0, "amax": 40.0, "alpha": 40.0}
        path = tmp_path / "peak.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "cap.csv")
        assert main(["capacity", "--instance", str(path), "--out", out, "--grid", "9"]) == 0
        _, [row] = read_report(out)
        assert float(row["gap"]) <= 1e-9
        assert abs(float(row["value_nats"]) - 1.140663381378) <= 1e-8


class TestBoundsCommand:
    def test_four_rows_ordered(self, isi_instance, tmp_path):
        """r in {1, 2}: lower(2) >= lower(1), upper(2) <= upper(1)."""
        out = str(tmp_path / "bounds.csv")
        rc = main(["bounds", "--instance", isi_instance, "--out", out,
                   "--r", "1", "--r", "2", "--tol", "1e-8"])
        assert rc == 0
        _, rows = read_report(out)
        assert len(rows) == 4
        by = {(r["bound_name"], r["r"]): float(r["value_nats"]) for r in rows}
        lo1 = by[("grid lower bound", "1")]
        lo2 = by[("grid lower bound", "2")]
        up1 = by[("grid upper bound of the discretized problem", "1")]
        up2 = by[("grid upper bound of the discretized problem", "2")]
        assert lo2 >= lo1 - 1e-6
        assert up2 <= up1 + 1e-6
        assert lo1 <= up1 + 1e-12 and lo2 <= up2 + 1e-12

    def test_idempotent_modulo_wallclock(self, isi_instance, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["bounds", "--instance", isi_instance, "--r", "1", "--tol", "1e-8"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0

        def strip_wallclock(path):
            lines = open(path).read().splitlines()
            return [",".join(ln.split(",")[:-1]) for ln in lines]

        assert strip_wallclock(out1) == strip_wallclock(out2)

    def test_calls_in_one_process_share_no_state(self, isi_instance, tmp_path, capsys):
        """main reuses one parser: a call with --r 1 --r 2, a usage error and
        a call without --r, in that order, each parse their own arguments,
        so the last solves only the default r = 1."""
        both, bad, one = (str(tmp_path / f"{n}.csv") for n in ("both", "bad", "one"))
        assert main(["bounds", "--instance", isi_instance, "--out", both,
                     "--r", "1", "--r", "2"]) == 0
        assert main(["bounds", "--instance", isi_instance, "--out", bad, "--r", "x"]) == 1
        assert "LTIPC-ERROR invalid-input:" in capsys.readouterr().err
        assert main(["bounds", "--instance", isi_instance, "--out", one]) == 0
        assert [r["r"] for r in read_report(both)[1]] == ["1", "1", "2", "2"]
        assert [r["r"] for r in read_report(one)[1]] == ["1", "1"]
        assert not os.path.exists(bad)


class TestSymklCommand:
    def test_closed_form_row_for_memoryless(self, memoryless_instance, tmp_path):
        """The closed form of intensity lambda0 + tap*x has peak tap*amax and
        budget tap*alpha; with tap 0 the channel carries nothing."""
        doc = json.load(open(memoryless_instance))
        for tap in (1.0, 0.5, 0.0):
            doc["impulse"] = [tap]
            path = tmp_path / f"tap{tap}.json"
            path.write_text(json.dumps(doc))
            out = str(tmp_path / f"symkl{tap}.csv")
            assert main(["symkl", "--instance", str(path), "--out", out]) == 0
            _, rows = read_report(out)
            names = {r["bound_name"] for r in rows}
            assert names == {"sym-kl upper bound", "sym-kl closed form"}
            vals = {r["bound_name"]: float(r["value_nats"]) for r in rows}
            assert abs(vals["sym-kl upper bound"] - vals["sym-kl closed form"]) < 1e-6, tap

    def test_generic_row_gap_is_nan(self, memoryless_instance, tmp_path):
        """Only the closed form is exact; the generic search certifies no gap."""
        out = str(tmp_path / "symkl.csv")
        assert main(["symkl", "--instance", memoryless_instance, "--out", out]) == 0
        _, rows = read_report(out)
        gaps = {r["bound_name"]: float(r["gap"]) for r in rows}
        assert math.isnan(gaps["sym-kl upper bound"])
        assert gaps["sym-kl closed form"] == 0.0


class TestSweepCommand:
    def test_alpha_sweep_shape(self, isi_instance, tmp_path):
        """Upper bound column grows with alpha and saturates at the peak."""
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--instance", isi_instance, "--out", out,
                   "--axis", "alpha", "--values", "1,2,4,8,10", "--tol", "1e-7"])
        assert rc == 0
        lines = open(out).read().splitlines()
        header = lines[1].split(",")
        assert header[0] == "alpha"
        assert {"lower_r1", "upper_r1", "stationary_lower",
                "stationary_upper"} <= set(header)
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        upper = data[:, header.index("upper_r1")]
        assert np.all(np.diff(upper) >= -1e-6)
        assert upper[-1] - upper[-2] < 1e-4  # saturating near the peak
        lower = data[:, header.index("lower_r1")]
        assert np.all(lower <= upper + 1e-12)

    def test_one_stationary_build_per_point(self, isi_instance, tmp_path, monkeypatch):
        """Point by point: one channel for each block length, then one
        single-slot channel shared by both stationary bounds, all solved from
        _block_factors."""
        calls = []
        for target in ("ltipc.channel._block_factors", "ltipc.bounds._block_factors"):
            monkeypatch.setattr(target, lambda bspec: calls.append(bspec.r) or _block_factors(bspec))
        rc = main(["sweep", "--instance", isi_instance, "--out", str(tmp_path / "s.csv"),
                   "--axis", "alpha", "--values", "2,6", "--r", "1", "--r", "2"])
        assert rc == 0
        assert calls == [1, 2, 1] * 2

    def test_upper_r1_is_monotonicity_sweeps_c1(self, isi_instance, tmp_path):
        """Both sweeps solve C_1 at the same points, so the report's upper_r1
        column is monotonicity_sweep's c1, float for float."""
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--instance", isi_instance, "--out", out,
                     "--axis", "alpha", "--values", "1,2,4", "--r", "1"]) == 0
        _, rows = read_report(out)
        verdict = monotonicity_sweep(ImpulseResponse((0.7, 0.3)), "alpha", [1.0, 2.0, 4.0],
                                     base_lambda0=2.0, base_amax=10.0, base_alpha=3.0,
                                     grid_points=3)
        assert [float(row["upper_r1"]) for row in rows] == list(verdict.c1)

    @pytest.mark.parametrize("axis, values", [("alpha", (1.0, 2.0, 4.0)),
                                              ("lambda0", (1.0, 5.0))])
    def test_stationary_columns_are_stationary_bounds(self, isi_instance, tmp_path,
                                                      axis, values):
        """The report's stationary columns are stationary_bounds at each
        point, on the point's grid, float for float."""
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--instance", isi_instance, "--out", out, "--axis", axis,
                     "--values", ",".join(map(str, values)), "--r", "1"]) == 0
        _, rows = read_report(out)
        base = lp.ChannelSpec(ImpulseResponse((0.7, 0.3)), 2.0, 10.0, 3.0)
        grid = lp.InputGrid.uniform(10.0, 3)
        for row, v in zip(rows, values, strict=True):
            both = lp.stationary_bounds(replace(base, **{axis: v}), grid)
            assert float(row["stationary_lower"]) == both.lower
            assert float(row["stationary_upper"]) == both.upper

    def test_requires_axis_and_values(self, isi_instance, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["sweep", "--instance", isi_instance, "--out", out]) == 1

    def test_unknown_axis_names_the_axes(self, isi_instance, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        rc = main(["sweep", "--instance", isi_instance, "--out", out,
                   "--axis", "noise", "--values", "1,2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")
        assert "--axis must be one of alpha, amax, lambda0" in err


class TestSimulateCommand:
    def test_writes_two_deterministic_tables(self, isi_instance, tmp_path):
        pre1 = str(tmp_path / "t1")
        pre2 = str(tmp_path / "t2")
        argv = ["simulate", "--instance", isi_instance, "--seed", "9",
                "--values", "1,5,0,10"]
        assert main(argv + ["--out", pre1]) == 0
        assert main(argv + ["--out", pre2]) == 0
        for suffix in (".inputs.csv", ".outputs.csv"):
            a = open(pre1 + suffix).read()
            b = open(pre2 + suffix).read()
            assert a == b
        out_lines = open(pre1 + ".outputs.csv").read().splitlines()
        assert out_lines[1] == "trial,slot,rx_id,y"
        in_lines = open(pre1 + ".inputs.csv").read().splitlines()
        assert in_lines[1] == "trial,slot,tx_id,x"

    def test_over_budget_trace_exits_1(self, isi_instance, tmp_path, capsys):
        """200 trials of 1,000,001 slots exceed the entry budget: exit 1,
        naming --values, before any count is drawn."""
        prefix = tmp_path / "big"
        rc = main(["simulate", "--instance", isi_instance, "--out", str(prefix),
                   "--values", "0..10..0.00001"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")
        assert "--values" in err
        assert not os.path.exists(f"{prefix}.outputs.csv")

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "alpha"]])
    def test_over_budget_values_range_exits_1(self, command, isi_instance, tmp_path, capsys):
        """0..1e12 holds 10^12 values: exit 1, naming --values, before the
        range is expanded, and write no file."""
        rc = main([*command, "--instance", isi_instance, "--out", str(tmp_path / "big"),
                   "--values", "0..1e12"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")
        assert "--values" in err
        assert [p.name for p in tmp_path.iterdir()] == ["isi.json"]

    def test_seed_changes_outputs(self, isi_instance, tmp_path):
        p1, p2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        main(["simulate", "--instance", isi_instance, "--out", p1, "--seed", "1"])
        main(["simulate", "--instance", isi_instance, "--out", p2, "--seed", "2"])
        assert open(p1 + ".outputs.csv").read() != open(p2 + ".outputs.csv").read()


class TestDegradeCheckCommand:
    def test_feasible_pair(self, tmp_path):
        doc = {"impulse": [1.0, 0.0], "lambda0": 2.0, "amax": 10.0,
               "alpha": 3.0, "grid_points": 3}
        inst = tmp_path / "base.json"
        inst.write_text(json.dumps(doc))
        out = str(tmp_path / "deg.csv")
        rc = main(["degrade-check", "--instance", str(inst), "--out", out,
                   "--values", "0.5,0.5", "--tol", "1e-8"])
        assert rc == 0
        _, rows = read_report(out)
        ordering = [r for r in rows if r["bound_name"] == "ordering"]
        assert len(ordering) == 1
        assert float(ordering[0]["value_nats"]) >= -1e-6
        assert len(rows) == 5  # ordering + two sandwich pairs

    def test_uses_instance_tail_eps(self, tmp_path):
        """The |p rows are the bounds of the zero-padded p at the instance's
        tail_eps, not at the package default."""
        doc = {"lambda0": 2.0, "amax": 10.0, "alpha": 3.0, "grid_points": 3,
               "tail_eps": 1e-3}
        inst, padded = tmp_path / "inst.json", tmp_path / "padded.json"
        inst.write_text(json.dumps(dict(doc, impulse=[0.7, 0.3])))
        padded.write_text(json.dumps(dict(doc, impulse=[0.7, 0.3, 0.0])))
        deg, bounds = str(tmp_path / "deg.csv"), str(tmp_path / "bounds.csv")
        assert main(["degrade-check", "--instance", str(inst), "--out", deg,
                     "--values", "0.49,0.42,0.09"]) == 0
        assert main(["bounds", "--instance", str(padded), "--out", bounds]) == 0
        upper = {r["instance_id"]: r["value_nats"] for r in read_report(deg)[1]
                 if r["bound_name"] == GRID_UPPER_LABEL}
        [expected] = [r["value_nats"] for r in read_report(bounds)[1]
                      if r["bound_name"] == GRID_UPPER_LABEL]
        assert upper["inst|p"] == expected

    def test_not_applicable_pair(self, isi_instance, tmp_path):
        out = str(tmp_path / "deg.csv")
        rc = main(["degrade-check", "--instance", isi_instance, "--out", out,
                   "--values", "0.5,0.5"])
        assert rc == 0
        _, rows = read_report(out)
        assert len(rows) == 1
        assert math.isnan(float(rows[0]["value_nats"]))


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        assert main(["zap", "--instance", "x", "--out", "y"]) == 1
        assert "LTIPC-ERROR invalid-input:" in capsys.readouterr().err

    def test_missing_instance(self, tmp_path, capsys):
        rc = main(["capacity", "--instance", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        rc = main(["capacity", "--instance", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "LTIPC-ERROR invalid-input:" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"impulse": [1.0], "lambda0": 1.0,
                                   "amax": 2.0, "alpha": 1.0, "bogus": 1}))
        assert main(["capacity", "--instance", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("field, value", [
        ("lambda0", None), ("grid_points", None), ("impulse", [None]),
        ("tail_eps", None), ("grid_points", 4.7),
        ("lambda0", True), ("impulse", [True]), ("amax", "40"),
        ("grid_points", True), ("alpha", "3.0"), ("impulse", ["0.7", 0.3]),
        pytest.param("grid_points", 10**400, id="grid_points-10**400"),
        pytest.param("lambda0", 10**400, id="lambda0-10**400")])
    def test_malformed_field_exits_1(self, field, value, tmp_path, capsys):
        doc = {"impulse": [0.7, 0.3], "lambda0": 2.0, "amax": 10.0, "alpha": 3.0,
               "grid_points": 3, field: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["capacity", "--instance", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")
        assert field in err

    def test_nan_tol_exits_1(self, isi_instance, tmp_path, capsys):
        rc = main(["capacity", "--instance", isi_instance, "--out", str(tmp_path / "o.csv"),
                   "--tol", "nan"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")
        assert "tol" in err

    @pytest.mark.parametrize("argv", [
        ["capacity"], ["sweep", "--axis", "alpha", "--values", "2"]])
    def test_oversized_grid_refused_before_it_is_built(self, argv, isi_instance, tmp_path,
                                                       monkeypatch, capsys):
        """--grid 3000000 is refused by the r = 1 block channel's byte count,
        from m alone, before the grid's points are made."""
        def explode(*args, **kwargs):
            raise AssertionError("InputGrid.uniform called")

        monkeypatch.setattr(lp.InputGrid, "uniform", explode)
        rc = main(argv + ["--instance", isi_instance, "--out", str(tmp_path / "o.csv"),
                          "--grid", "3000000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:")
        assert "the block channel needs" in err and "--grid" in err

    def test_nonconvergence_exit_code(self, memoryless_instance, tmp_path,
                                      monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise ConvergenceError("stuck", gap=1.0, iterations=3)

        monkeypatch.setattr(cli, "block_sandwich_bounds", explode)
        rc = main(["capacity", "--instance", memoryless_instance,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "LTIPC-ERROR non-convergence:" in capsys.readouterr().err

    def test_cycle_oracle_guard_exits_2(self, tmp_path, monkeypatch, capsys):
        doc = {"impulse": [0.7, 0.3], "lambda0": 5.0, "amax": 40.0, "alpha": 4.0,
               "grid_points": 3, "tail_eps": 1e-10}
        path = tmp_path / "binding.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("ltipc.bounds._CYCLE_STEPS", 0)
        rc = main(["sweep", "--instance", str(path), "--out", str(tmp_path / "o.csv"),
                   "--axis", "alpha", "--values", "4", "--grid", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR non-convergence:")


@pytest.mark.parametrize("argv, writer, n_rows", [
    (["capacity"], "write_bound_report", 1),
    (["bounds", "--r", "1", "--r", "2"], "write_bound_report", 4),
    (["symkl"], "write_bound_report", 1),
    (["sweep", "--axis", "alpha", "--values", "2,6", "--tol", "1e-7"],
     "write_sweep_report", 2),
    (["simulate", "--values", "1,5,0,10"], "write_trace", 200 * 4),
    (["degrade-check", "--values", "0.49,0.42,0.09"], "write_bound_report", 5),
])
def test_each_command_reaches_its_writer(argv, writer, n_rows, isi_instance,
                                         tmp_path, monkeypatch):
    """Every command hands its rows to one writer, looked up on ltipc.cli
    when the command runs, so that wrapping the attribute sees the call."""
    calls = []
    monkeypatch.setattr(cli, "write_bound_report",
                        lambda path, rows, *rest: calls.append(
                            ("write_bound_report", len(rows))))
    monkeypatch.setattr(cli, "write_sweep_report",
                        lambda path, axis, values, *rest: calls.append(
                            ("write_sweep_report", len(values))))
    monkeypatch.setattr(cli, "write_trace",
                        lambda prefix, trace, *rest: calls.append(
                            ("write_trace", trace.outputs.size)))
    out = str(tmp_path / "out")
    assert main(argv + ["--instance", isi_instance, "--out", out]) == 0
    assert calls == [(writer, n_rows)]


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for a
    fresh interpreter that imports the ltipc under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# Runs main(argv) with the address space capped at 3 GiB, so that building an
# over-budget array fails at once with MemoryError instead of paging.
_CAPPED_MAIN = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from ltipc.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("doc, argv, what", [
    # 15 taps on a 2-point grid: Karp's tables would be 16,385 x 16,384.
    ({"impulse": [0.0666] * 15, "lambda0": 2.0, "amax": 10.0, "alpha": 2.0,
      "grid_points": 2}, ["sweep", "--axis", "alpha", "--values", "2"], "cycle search"),
    # 5 taps on the default 9-point grid: the sym-KL matrix would be 59,049^2.
    ({"impulse": [0.3, 0.25, 0.2, 0.15, 0.1], "lambda0": 2.0, "amax": 40.0,
      "alpha": 10.0}, ["symkl"], "sym-KL matrix"),
    # 4 taps on a 10-point grid: 10,000^2 entries, half the entry budget, but
    # the sym-KL step holds four such float64 arrays at once.
    ({"impulse": [0.4, 0.3, 0.2, 0.1], "lambda0": 2.0, "amax": 40.0, "alpha": 10.0},
     ["symkl", "--grid", "10"], "sym-KL matrix"),
    # 3 taps on a 4-point grid at r = 3: the block channel would be
    # 1,024 x 3,442,951.
    ({"impulse": [0.5, 0.3, 0.2], "lambda0": 5.0, "amax": 80.0, "alpha": 20.0},
     ["bounds", "--grid", "4", "--r", "3"], "block channel"),
])
def test_over_budget_array_exits_1(doc, argv, what, tmp_path):
    """An instance whose block channel, cycle-search tables or sym-KL arrays
    exceed the budget exits 1 with one line naming --grid, before allocating
    them."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv, "--instance", str(path),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("LTIPC-ERROR invalid-input:")
    assert what in proc.stderr and "--grid" in proc.stderr


def test_import_leaves_scipy_unloaded():
    """A fresh `import ltipc, ltipc.cli` loads none of SciPy's heavy
    subpackages; `ltipc.bounds.linprog` still resolves, on first read, for
    tools that wrap it."""
    code = ("import sys, ltipc, ltipc.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
            "print(ltipc.bounds.linprog.__module__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, linprog_module = proc.stdout.splitlines()
    heavy = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.stats")
    assert [m for m in loaded.split() if m.startswith(heavy)] == []
    assert linprog_module.startswith("scipy.optimize")
