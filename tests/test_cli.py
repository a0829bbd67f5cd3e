"""Command-line front end: dispatch, CSV contracts, exit codes,
idempotence."""
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace

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
    path = tmp_path / "isi.json"
    path.write_text(json.dumps(INSTANCES["isi"]))
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


class TestBoundsCommand:
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


# The instances of the end-to-end cases below; README's is "readme", and the
# isi_instance fixture writes "isi".
INSTANCES = {
    "smoke": {"impulse": [0.7, 0.3], "lambda0": 2.0, "amax": 40.0, "alpha": 10.0},
    "onoff": {"impulse": [0.7, 0.3], "lambda0": 1.0, "amax": 10.0, "alpha": 5.0},
    "faint": {"impulse": [0.41, 0.33, 0.26], "lambda0": 1e-4, "amax": 4e-4, "alpha": 1e-4},
    "budgetrow": {"impulse": [0.6044, 0.2982, 0.0974], "lambda0": 3.3333,
                  "amax": 51.295, "alpha": 23.529},
    "readme": {"impulse": [0.7, 0.3], "lambda0": 5.0, "amax": 40.0, "alpha": 5.0},
    "half": {"impulse": [0.5], "lambda0": 5.0, "amax": 40.0, "alpha": 5.0},
    "peak": {"impulse": [0.7, 0.3], "lambda0": 2.0, "amax": 40.0, "alpha": 40.0},
    "readme-peak": {"impulse": [0.7, 0.3], "lambda0": 5.0, "amax": 40.0, "alpha": 40.0},
    "isi": {"impulse": [0.7, 0.3], "lambda0": 2.0, "amax": 10.0, "alpha": 3.0,
            "grid_points": 3, "tail_eps": 1e-10},
    "zero-tap": {"impulse": [1.0, 0.0], "lambda0": 2.0, "amax": 10.0, "alpha": 3.0,
                 "grid_points": 3},
}


@dataclass(frozen=True)
class Case:
    """One CLI run and the checks on what it writes.  A value is addressed
    as (data row, column) of the report at --out, or is a number."""
    id: str
    instance: str
    argv: tuple
    exit_code: int = 0
    rows: int | None = None  # data rows of the report; None for a trace
    pins: dict = field(default_factory=dict)  # value: (expected, tol), nan pins nan
    at_most: tuple = ()  # (a, b, slack): a <= b + slack
    digests: dict = field(default_factory=dict)  # suffix: SHA-256 of the data rows
    error: str = ""  # text of the one-line invalid-input message; no file is written


def _lower_at_most_upper(n_pairs):
    """Sandwich reports: each lower bound row sits just before its upper."""
    return tuple(((2 * i, "value_nats"), (2 * i + 1, "value_nats"), 0.0)
                 for i in range(n_pairs))


def _stationary_between(n_rows):
    """Sweep reports: stationary_lower <= stationary_upper <= upper_r1."""
    return tuple(link for i in range(n_rows) for link in (
        ((i, "stationary_lower"), (i, "stationary_upper"), 0.0),
        ((i, "stationary_upper"), (i, "upper_r1"), 1e-6)))


CASES = [
    # Trace digests: a change to the Poisson draws fails here.
    Case("simulate-smoke", "smoke", ("simulate", "--seed", "7", "--values", "5,10,0,40"),
         digests={
             ".outputs.csv": "e375697c133de98e29da38b859064ac0a081ac01d590e5988289b24fc6968800",
             ".inputs.csv": "2bfd9a8973aba9df90178b1d3430466b0648141cf2c5b15562786e52c356b20e"}),
    # An on-off waveform: Atkinson groups of 64 slots at intensities 30 and
    # 42, drawn in lockstep rounds from the uniform table.
    Case("simulate-onoff", "smoke",
         ("simulate", "--seed", "7", "--values", ",".join(["0", "40", "40", "0"] * 64)),
         digests={
             ".outputs.csv": "cd16457434c3d2359defb4ff0388ea9329f4f0fe29356437484e638debeda065"}),
    Case("simulate-readme", "readme", ("simulate", "--seed", "7", "--values", "5,10,0,40"),
         digests={
             ".outputs.csv": "898a55eff376fcaa335b1bd137e9bd86a593a9c92170c0c87d8ab8a3e1bbad03"}),
    Case("bounds-smoke", "smoke", ("bounds", "--grid", "3", "--r", "1"), rows=2),
    # The largest block solved here: 16 x 59,319 on-off keyed at r = 3,
    # solved from its slot factors.  The pin catches a slot-order bug.
    Case("bounds-onoff-r3", "onoff", ("bounds", "--grid", "2", "--r", "3"), rows=2,
         pins={(1, "value_nats"): (0.62518879095813862, 1e-9)},
         at_most=_lower_at_most_upper(1)),
    # The one CLI path that solves a materialized matrix: 64 distinct slot
    # pmfs of 3 counts, so the 64^2 grid of slot-index pairs outsizes the
    # 256 x 9 block matrix, which is solved as it stands.
    Case("bounds-faint", "faint", ("bounds", "--grid", "4", "--r", "2"), rows=2,
         pins={(1, "value_nats"): (6.2541124418934529e-05, 1e-12)},
         at_most=_lower_at_most_upper(1)),
    # A slack budget at hand-over whose unconstrained KKT point breaks it:
    # the polish must bring the budget row in, not leave BA's 1/t tail to
    # finish (32,769 iterations).
    Case("bounds-budgetrow", "budgetrow", ("bounds", "--grid", "5", "--r", "1"), rows=2,
         pins={(1, "value_nats"): (1.2971467013688773, 1e-9)},
         at_most=(((0, "iterations"), 9, 0), ((1, "iterations"), 9, 0))),
    # README's bounds command: r = 2 is a 729 x 9,025 block, finished by
    # the Newton polish.
    Case("bounds-readme", "readme", ("bounds", "--r", "1", "--r", "2"), rows=4,
         pins={(0, "value_nats"): (0.42512426555131178, 1e-9),
               (1, "value_nats"): (0.85024853110262355, 1e-9),
               (3, "value_nats"): (0.73999869143498687, 1e-9)},
         at_most=_lower_at_most_upper(2)),
    # Rows: lower and upper at r = 1, then at r = 2; the longer block
    # tightens both.
    Case("bounds-isi", "isi", ("bounds", "--r", "1", "--r", "2", "--tol", "1e-8"), rows=4,
         at_most=(((0, "value_nats"), (2, "value_nats"), 1e-6),
                  ((3, "value_nats"), (1, "value_nats"), 1e-6),
                  ((0, "value_nats"), (1, "value_nats"), 1e-12),
                  ((2, "value_nats"), (3, "value_nats"), 1e-12))),
    Case("capacity-readme", "readme", ("capacity",), rows=1,
         pins={(0, "value_nats"): (0.85024853110262355, 1e-9)}),
    Case("capacity-peak", "peak", ("capacity",), rows=1),
    # alpha = amax leaves the budget slack at every iterate, where plain
    # Blahut-Arimoto's gap decays only like O(1/t).
    Case("capacity-readme-peak", "readme-peak", ("capacity", "--grid", "9"), rows=1,
         pins={(0, "value_nats"): (1.140663381378, 1e-8)},
         at_most=(((0, "gap"), 1e-9, 0.0),)),
    Case("sweep-smoke", "smoke", ("sweep", "--axis", "alpha", "--values", "4,10",
                                  "--grid", "3", "--r", "1"),
         rows=2, at_most=_stationary_between(2)),
    # Again at the default grid (9 points, 81 windows).
    Case("sweep-smoke-grid9", "smoke", ("sweep", "--axis", "alpha", "--values", "4,10",
                                        "--r", "1"),
         rows=2, at_most=_stationary_between(2)),
    # Up to alpha = amax, where the stationary lower bound's barrier weight
    # reaches its floor.
    Case("peak-sweep", "readme", ("sweep", "--grid", "3", "--axis", "alpha",
                                  "--values", "5,40"),
         rows=2, at_most=_stationary_between(2),
         pins={(0, "stationary_lower"): (0.54238095571564959, 1e-9),
               (1, "stationary_lower"): (0.86870019170268264, 1e-9),
               (0, "stationary_upper"): (0.73221739849856771, 1e-9),
               (1, "stationary_upper"): (1.1365264043796124, 1e-9)}),
    # README's sweep on two of its points: 1..40 takes over a second.
    Case("sweep-readme", "readme", ("sweep", "--axis", "alpha", "--values", "5,10"),
         rows=2, at_most=_stationary_between(2),
         pins={(0, "stationary_lower"): (0.57815215045406643, 1e-9),
               (1, "stationary_lower"): (0.79320640464886449, 1e-9),
               (0, "stationary_upper"): (0.73768567530742568, 1e-9),
               (1, "stationary_upper"): (1.0083094258726397, 1e-9),
               (0, "upper_r1"): (0.85024853110262355, 1e-9),
               (1, "upper_r1"): (1.07225032855203, 1e-9)}),
    # Rows: the ordering margin, then the sandwiches of p and p'.
    Case("degrade-smoke", "smoke", ("degrade-check", "--grid", "3",
                                    "--values", "0.49,0.42,0.09"),
         rows=5, at_most=((0.0, (0, "value_nats"), 1e-6),)),
    # p = (1, 0) filtered by (0.5, 0.5) is p' = (0.5, 0.5): a degraded pair.
    Case("degrade-zero-tap", "zero-tap", ("degrade-check", "--values", "0.5,0.5",
                                          "--tol", "1e-8"),
         rows=5, at_most=((0.0, (0, "value_nats"), 1e-6),)),
    # The taps (0.7, 0.3) cannot degrade to (0.5, 0.5): the NNLS verdict
    # depends on the taps alone.
    Case("degrade-smoke-na", "smoke", ("degrade-check", "--grid", "3", "--values", "0.5,0.5"),
         rows=1, pins={(0, "value_nats"): (math.nan, 0.0)}),
    Case("degrade-readme", "readme", ("degrade-check", "--values", "0.35,0.5,0.15"), rows=5,
         pins={(0, "value_nats"): (0.12074644615692554, 1e-9),
               (2, "value_nats"): (0.98926532487408358, 1e-9),
               (4, "value_nats"): (0.86851887871715805, 1e-9)}),
    # Rows: the generic search, then the memoryless closed form.
    Case("symkl-half", "half", ("symkl", "--grid", "5"), rows=2,
         at_most=(((0, "value_nats"), (1, "value_nats"), 1e-6),
                  ((1, "value_nats"), (0, "value_nats"), 1e-6))),
    # README's instance at the default grid: 81 inputs, all 18 starts in one batch.
    Case("symkl-readme", "readme", ("symkl",), rows=1,
         pins={(0, "value_nats"): (9.91345341958679, 1e-9)}),
    # Block lengths a command does not solve are refused, not dropped.
    Case("capacity-two-r", "isi", ("capacity", "--r", "1", "--r", "2"), exit_code=1,
         error="capacity solves --r 1 only, got --r 1;2"),
    Case("degrade-two-r", "isi", ("degrade-check", "--values", "0.49,0.42,0.09",
                                  "--r", "2", "--r", "1"), exit_code=1,
         error="degrade-check solves --r 2 only, got --r 2;1"),
    Case("symkl-r2", "isi", ("symkl", "--r", "2"), exit_code=1,
         error="symkl solves --r 1 only, got --r 2"),
    # NaN fails both ends of the range check.
    Case("simulate-nan", "isi", ("simulate", "--values", "5,nan,3"), exit_code=1,
         error="inputs must lie in [0, amax]"),
]
CASE = {case.id: case for case in CASES}


def check_case(case, tmp_path):
    """Run one case through main into tmp_path; fail on any check it misses."""
    instance = tmp_path / f"{case.instance}.json"
    instance.write_text(json.dumps(INSTANCES[case.instance]))
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main([*case.argv, "--instance", str(instance), "--out", str(out)]) == case.exit_code
    if case.error:
        err = stderr.getvalue()
        assert err.count("\n") == 1 and err.startswith("LTIPC-ERROR invalid-input:"), err
        assert case.error in err, err
        assert [p.name for p in tmp_path.iterdir()] == [instance.name]
    for suffix, digest in case.digests.items():
        data_rows = (tmp_path / f"out{suffix}").read_bytes().split(b"\n", 2)[2]
        assert hashlib.sha256(data_rows).hexdigest() == digest, suffix
    if case.rows is None:
        return
    _, rows = read_report(out)
    assert len(rows) == case.rows

    def value(at):
        return float(rows[at[0]][at[1]]) if isinstance(at, tuple) else at

    for at, (expected, tol) in case.pins.items():
        assert np.isclose(value(at), expected, rtol=0.0, atol=tol, equal_nan=True), (at, rows)
    for a, b, slack in case.at_most:
        assert value(a) <= value(b) + slack, (a, b, rows)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_case_table(case, tmp_path):
    """Each command end to end on fixed instances, its pinned values and
    digests included.  A new pin is one more row of CASES."""
    check_case(case, tmp_path)


@pytest.mark.parametrize("case", [
    replace(CASE["bounds-faint"], pins={(1, "value_nats"): (6.2541124418934529e-05 + 1e-11,
                                                            1e-12)}),
    replace(CASE["degrade-smoke"], pins={(0, "value_nats"): (math.nan, 0.0)}),
    replace(CASE["simulate-smoke"], digests={
        ".inputs.csv": "2bfd9a8973aba9df90178b1d3430466b0648141cf2c5b15562786e52c356b20f"}),
    replace(CASE["bounds-smoke"], rows=3),
    replace(CASE["bounds-smoke"], argv=(*CASE["bounds-smoke"].argv, "--tol", "nan")),
    replace(CASE["bounds-budgetrow"], at_most=(((0, "iterations"), 8, 0),)),
    replace(CASE["symkl-r2"], error="symkl solves --r 2 only"),
], ids=["pin-moved", "nan-pin-on-a-number", "digest-digit", "rows-off-by-one",
        "exits-1-not-0", "at-most-tightened", "error-text"])
def test_case_table_catches_a_doctored_case(case, tmp_path):
    """Each kind of check in the table fails when its expectation is wrong."""
    with pytest.raises(AssertionError):
        check_case(case, tmp_path)


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
