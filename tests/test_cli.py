"""Tests for the command-line driver: schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mnlmarkets
from mnlmarkets import network
from mnlmarkets.cli import main
from mnlmarkets.lp import enumerate_columns

EXAMPLE_CATALOG = {"schema": 1, "qualities": [1.0, 2.0], "inventories": [1, 1]}


@pytest.fixture
def catalog_path(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(EXAMPLE_CATALOG))
    return str(path)


@pytest.fixture
def market_path(tmp_path):
    doc = {
        "schema": 1,
        "theta": [[2.0, 0.5], [1.0, 1.5]],
        "capacities": [1, 1],
    }
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestEquilibriumCommand:
    def test_pair_output(self, catalog_path, capsys):
        code, out, _ = run(["equilibrium", catalog_path, "--items", "0,1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["q0"] == pytest.approx(0.331487, abs=1e-6)
        assert round(doc["q0"], 2) == 0.33
        assert doc["items"] == [1, 0]  # sorted by quality, original ids
        assert doc["total_revenue"] == pytest.approx(1.064005, abs=1e-6)

    def test_empty_assortment(self, catalog_path, capsys):
        code, out, _ = run(["equilibrium", catalog_path, "--items", ""], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["q0"] == 1.0 and doc["total_revenue"] == 0.0

    def test_bad_index_exits_2(self, catalog_path, capsys):
        code, _, err = run(["equilibrium", catalog_path, "--items", "0,7"], capsys)
        assert code == 2
        assert "error" in err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**EXAMPLE_CATALOG, "weights": [1]}))
        code, _, err = run(["equilibrium", str(path)], capsys)
        assert code == 2 and "unknown fields" in err

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run(["equilibrium", "/nonexistent/cat.json"], capsys)
        assert code == 3

    def test_perishable_requires_costs(self, catalog_path, capsys):
        code, _, _ = run(["equilibrium", catalog_path, "--perishable"], capsys)
        assert code == 2

    def test_share_just_above_the_underflow(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"schema": 1, "qualities": [-744], "inventories": [1]}))
        code, out, _ = run(["equilibrium", str(path)], capsys)
        assert code == 0 and json.loads(out)["demands"] == [5e-324]

    def test_round_trip(self, catalog_path, capsys):
        code, out, _ = run(["equilibrium", catalog_path, "--items", "all"], capsys)
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


class TestOptCommand:
    def test_objective(self, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema": 1, "qualities": [2.0], "inventories": [5]}))
        code, out, _ = run(["opt", str(path), "--buyers", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == pytest.approx(3.0, abs=1e-8)
        assert doc["support"] == [{"items": [0], "mass": pytest.approx(3.0, abs=1e-9)}]

    def test_fixed_rev(self, catalog_path, capsys):
        code, out, _ = run(
            ["opt", catalog_path, "--buyers", "1", "--fixed-rev", "1,1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == pytest.approx(1.0 - 0.331487, abs=1e-5)

    @pytest.mark.parametrize("fixed_rev", ["a,b", "nan,1", "inf,1", "1,-inf"])
    def test_non_numeric_or_non_finite_fixed_rev_exits_2(self, catalog_path, capsys, fixed_rev):
        code, out, err = run(
            ["opt", catalog_path, "--buyers", "1", "--fixed-rev", fixed_rev], capsys
        )
        assert_one_error_line(code, out, err)

    def test_overflowing_fixed_rev_exits_3(self, catalog_path, capsys):
        # 1e308 per sale overflows a simplex pivot; 1e200 stays in range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not leak
            code, out, err = run(["opt", catalog_path, "--buyers", "5", "--fixed-rev", "1e308,1e308"], capsys)
            assert code == 3 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            code, out, _ = run(["opt", catalog_path, "--buyers", "5", "--fixed-rev", "1e200,1e200"], capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["objective"])

    @pytest.mark.parametrize("inventories, buyers", [([1, 10**400], 3), ([1, 1], 10**400)],
                             ids=["inventory", "buyers"])
    def test_whole_number_beyond_double_range_exits_2(self, tmp_path, capsys, inventories, buyers):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema": 1, "qualities": [1.0, 2.0], "inventories": inventories}))
        assert_one_error_line(*run(["opt", str(path), "--buyers", str(buyers)], capsys))

    def test_shares_just_above_the_underflow(self, tmp_path, capsys):
        # Six items, so the columns come from the batched kernel.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"schema": 1, "qualities": [-744, -745.5, -746, 0, 1, 2],
                                    "inventories": [1] * 6}))
        code, out, _ = run(["opt", str(path), "--buyers", "3"], capsys)
        assert code == 0 and json.loads(out)["objective"] > 0.0

    @pytest.mark.parametrize("field, value", [("qualities", 5), ("inventories", 1), ("qualities", "12")])
    def test_a_scalar_where_a_list_is_due_exits_2(self, tmp_path, capsys, field, value):
        # Once "error: catalog: 'int' object is not iterable", or a string read as its characters.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**EXAMPLE_CATALOG, field: value}))
        code, out, err = run(["opt", str(path), "--buyers", "3"], capsys)
        assert_one_error_line(code, out, err)
        assert err == f"error: catalog: {field}: {value!r} is not a sequence\n"

    def test_columns_of_one_catalog_are_kept(self, tmp_path, catalog_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": 1, "qualities": [0.5, 1.5, 2.5], "inventories": [1, 2, 3]}))
        for path in (catalog_path, str(other)):
            assert run(["opt", path, "--buyers", "3"], capsys)[0] == 0
        assert enumerate_columns.cache_info().currsize == 1

    def test_fixed_rev_after_opt_reuses_the_columns(self, catalog_path, capsys):
        assert run(["opt", catalog_path, "--buyers", "3"], capsys)[0] == 0
        before = enumerate_columns.cache_info()
        assert run(["opt", catalog_path, "--buyers", "3", "--fixed-rev", "1,2"], capsys)[0] == 0
        after = enumerate_columns.cache_info()
        assert after.misses == before.misses and after.hits > before.hits


class TestSimulateCommand:
    def make_config(self, tmp_path, drop=(), **overrides):
        doc = {
            "schema": 1,
            "catalog": {"schema": 1, "qualities": [2.0, 0.5], "inventories": [2, 2]},
            "policy": "hybrid",
            "threshold": 0.5,
            "buyers_sweep": [4, 8],
            "replications": 40,
            "seed": 7,
        }
        doc.update(overrides)
        for key in drop:
            del doc[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_csv_shape(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        code, out, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("experiment,policy,threshold,buyers")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "hybrid"
        assert lines[1].split(",")[3] == "4"

    def test_byte_determinism_across_workers(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--workers", "3", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_nonpositive_workers_exit_2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        for workers in ("0", "-1"):
            code, out, err = run(["simulate", "--config", cfg, "--workers", workers], capsys)
            assert code == 2 and out == ""
            assert "--workers must be >= 1" in err

    def test_unknown_policy_exits_2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, policy="oracle")
        code, _, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 2

    def test_conflicting_sweeps_exit_2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, buyers=3)
        code, _, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 2

    @pytest.mark.parametrize("field", [
        {"buyers_sweep": ["abc"]},
        {"buyers_sweep": [None]},
        {"threshold": "x"},
        {"replications": "x"},
        {"seed": "x"},
    ])
    def test_unconvertible_field_exits_2(self, tmp_path, capsys, field):
        cfg = self.make_config(tmp_path, **field)
        assert_one_error_line(*run(["simulate", "--config", cfg], capsys))

    @pytest.mark.parametrize("field", [
        {"threshold": "0.6"},
        {"threshold": True},
        {"threshold_sweep": [0.6, "0.7"]},
        {"threshold_sweep": [False]},
    ], ids=["string", "true", "string-in-sweep", "false-in-sweep"])
    def test_threshold_must_be_a_json_number(self, tmp_path, capsys, field):
        # "0.6" ran and printed 0.6; true failed with "got 1.0".
        drop = ("threshold",) if "threshold_sweep" in field else ()
        code, out, err = run(["simulate", "--config", self.make_config(tmp_path, drop=drop, **field)], capsys)
        assert_one_error_line(code, out, err)
        assert err.startswith("error: threshold: ") and "is not a number" in err

    def test_inventory_beyond_double_range_exits_2(self, tmp_path, capsys):
        catalog = {"schema": 1, "qualities": [2.0, 0.5], "inventories": [2, 10**400]}
        cfg = self.make_config(tmp_path, catalog=catalog)
        assert_one_error_line(*run(["simulate", "--config", cfg], capsys))

    def test_inventory_beyond_int64_exits_2(self, tmp_path, capsys):
        # 2**70 is a double, so the LP takes it, but the engine's stock is int64.
        catalog = {"schema": 1, "qualities": [2.0, 0.5], "inventories": [2, 2**70]}
        cfg = self.make_config(tmp_path, catalog=catalog)
        code, out, err = run(["simulate", "--config", cfg], capsys)
        assert_one_error_line(code, out, err)
        assert "2**63" in err
        path = tmp_path / "big.json"
        path.write_text(json.dumps(catalog))
        code, out, _ = run(["opt", str(path), "--buyers", "3"], capsys)
        assert code == 0 and json.loads(out)["objective"] > 0.0

    def test_hybrid_with_a_negligible_item(self, tmp_path, capsys):
        # The solo revenue of theta = -800 underflows to 0.0.
        catalog = {"schema": 1, "qualities": [2.0, -800.0], "inventories": [2, 2]}
        code, out, _ = run(["simulate", "--config", self.make_config(tmp_path, catalog=catalog)],
                           capsys)
        assert code == 0 and len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize("field, drop", [
        ({"buyers_sweep": [2.7]}, ()),
        ({"buyers_sweep": [4, True]}, ()),
        ({"buyers": 2.5}, ("buyers_sweep",)),
        ({"buyers": True}, ("buyers_sweep",)),
        ({"replications": 40.5}, ()),
        ({"replications": True}, ()),
        ({"seed": 7.5}, ()),
        ({"seed": False}, ()),
        ({"seed": "7"}, ()),
        ({"catalog": {"schema": 1, "qualities": [2.0, 0.5], "inventories": [2.7, 1]}}, ()),
        ({"catalog": {"schema": 1, "qualities": [2.0, 0.5], "inventories": [True, 2]}}, ()),
        ({"catalog": {"schema": 1, "qualities": [2.0, 0.5], "inventories": [1e999, 2]}}, ()),
    ])
    def test_non_whole_count_exits_2(self, tmp_path, capsys, field, drop):
        cfg = self.make_config(tmp_path, drop=drop, **field)
        assert_one_error_line(*run(["simulate", "--config", cfg], capsys))

    def test_integral_floats_are_counts(self, tmp_path, capsys):
        as_ints = run(["simulate", "--config", self.make_config(tmp_path)], capsys)
        cfg = self.make_config(tmp_path, buyers_sweep=[4.0, 8.0], replications=40.0, seed=7.0,
                               catalog={"schema": 1, "qualities": [2.0, 0.5], "inventories": [2.0, 2]})
        assert run(["simulate", "--config", cfg], capsys) == as_ints

    @pytest.mark.parametrize("policy", [[["hybrid"]], []])
    def test_malformed_policy_exits_2(self, tmp_path, capsys, policy):
        cfg = self.make_config(tmp_path, policy=policy)
        assert_one_error_line(*run(["simulate", "--config", cfg], capsys))

    @pytest.mark.parametrize("catalog_path", [True, ["catalog.json"]])
    def test_non_string_catalog_path_exits_2(self, tmp_path, catalog_path):
        # In a child process whose stdout is a pipe: open(True) opens file
        # descriptor 1, fails to read it and closes it.
        cfg = self.make_config(tmp_path, drop=("catalog",), catalog_path=catalog_path)
        src = str(Path(mnlmarkets.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "mnlmarkets.cli", "simulate", "--config", cfg],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)

    # Shapes numpy rejects before allocating anything.
    @pytest.mark.parametrize("field", [
        {"buyers_sweep": [1e300]},
        {"buyers_sweep": [2**62]},
        {"replications": 1e300},
        {"replications": 2**62},
    ])
    def test_unaddressable_counts_exit_2(self, tmp_path, capsys, field):
        cfg = self.make_config(tmp_path, **field)
        assert_one_error_line(*run(["simulate", "--config", cfg], capsys))

    def test_unallocatable_uniforms_exit_3(self, tmp_path, capsys):
        # 4 x 1e15 doubles is addressable, but no allocator can hand it out.
        cfg = self.make_config(tmp_path, drop=("buyers_sweep",), buyers=1e15, replications=4)
        code, out, err = run(["simulate", "--config", cfg], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", [
        {"threshold_sweep": [0.5], "buyers_sweep": [4, 2**62]},
        {"threshold_sweep": [0.5, 0.3], "buyers_sweep": [4, 2**62]},
        {"policy": ["hybrid", "greedy"], "threshold_sweep": [0.5, 0.3], "buyers_sweep": [4, 8]},
    ], ids=["later-buyers", "buyers-before-threshold", "later-threshold"])
    def test_first_failing_row_sets_the_error(self, tmp_path, capsys, field):
        # Rows run policy, threshold, buyers; the first failing row's message
        # is the one printed, although every row is checked before any runs.
        cfg = self.make_config(tmp_path, drop=("threshold",), **field)
        code, out, err = run(["simulate", "--config", cfg], capsys)
        assert_one_error_line(code, out, err)
        expected = ("threshold must lie in [0.5, 1), got 0.3" if field["buyers_sweep"] == [4, 8]
                    else "replications x buyers exceed the doubles numpy can address")
        assert err == f"error: {expected}\n"

    def test_replications_beyond_stream_indices_exit_2(self, tmp_path, capsys):
        # Addressable, but index 2**32 would need a second seed word.
        cfg = self.make_config(tmp_path, replications=2**32 + 1)
        code, out, err = run(["simulate", "--config", cfg], capsys)
        assert_one_error_line(code, out, err)
        assert "2**32" in err


class TestGcurveCommand:
    def test_table_and_max_row(self, capsys):
        code, out, _ = run(
            ["gcurve", "--lo", "0.6", "--hi", "0.68", "--step", "0.02"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,threshold,bound"
        assert lines[-1].startswith("max,")
        assert float(lines[-1].split(",")[2]) > 0.05

    def test_range_error_exits_2(self, capsys):
        code, _, _ = run(["gcurve", "--lo", "0.4", "--hi", "0.9"], capsys)
        assert code == 2

    @pytest.mark.parametrize("step", ["1e-13", "0", "nan", "inf"])
    def test_unusable_step_exits_2(self, step):
        # In a child process with a timeout: a step that cannot advance the
        # threshold would otherwise loop for ever.
        src = str(Path(mnlmarkets.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "mnlmarkets.cli", "gcurve", "--step", step],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)

    def test_deterministic(self, capsys):
        args = ["gcurve", "--lo", "0.5", "--hi", "0.6", "--step", "0.05"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_step_resolution_stable_max(self, capsys):
        # Refining the sweep step leaves the reported maximum unchanged to
        # three decimals.
        maxima = []
        for step in ("0.01", "0.001"):
            _, out, _ = run(
                ["gcurve", "--lo", "0.6", "--hi", "0.68", "--step", step], capsys
            )
            maxima.append(float(out.strip().split("\n")[-1].split(",")[2]))
        assert abs(maxima[0] - maxima[1]) < 5e-4


class TestNumericFields:
    """Booleans and strings are not numbers, and visibility is a 0/1 flag."""

    @pytest.mark.parametrize("field", [
        {"qualities": [True, 0.5]},
        {"qualities": ["2.0", 0.5]},
        {"qualities": [None, 0.5]},
        {"costs": [True, 0.0]},
        {"costs": [0.1, "0"]},
        {"qualities": [10**400, 0.5]},  # an integer beyond the double range
        {"costs": [10**400, 0.0]},
    ])
    def test_non_numeric_catalog_entry_exits_2(self, tmp_path, capsys, field):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({**EXAMPLE_CATALOG, "costs": [0.1, 0.2], **field}))
        assert_one_error_line(*run(["equilibrium", str(path), "--perishable"], capsys))

    @pytest.mark.parametrize("field", [
        {"theta": [[True, 0.5], [1.0, 1.5]]},
        {"theta": [["2.0", 0.5], [1.0, 1.5]]},
        {"theta": [[2.0, 0.5], [1.0]]},
        {"visibility": [[1, 0.5], [1, 1]]},
        {"visibility": [[2, 1], [1, 1]]},
        {"visibility": [["true", True], [True, True]]},
        {"visibility": [[None, True], [True, True]]},
        {"theta": [[10**400, 0.5], [1.0, 1.5]]},
    ])
    def test_non_numeric_market_entry_exits_2(self, tmp_path, capsys, field):
        doc = {"schema": 1, "theta": [[2.0, 0.5], [1.0, 1.5]], "capacities": [1, 1], **field}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert_one_error_line(*run(["network", str(path)], capsys))

    def test_visibility_flags_read_alike(self, tmp_path, capsys):
        outs = []
        for vis in ([[True, True], [True, False]], [[1, 1], [1, 0]], [[1.0, True], [1, 0.0]]):
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"schema": 1, "theta": [[2.0, 0.5], [1.0, 1.5]],
                                        "visibility": vis, "capacities": [1, 1]}))
            code, out, _ = run(["network", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


class TestInProcessCalls:
    def test_mixed_commands_match_fresh_processes(self, tmp_path, catalog_path, market_path, capsys):
        # One process runs several commands in turn; each output must be the
        # bytes a fresh interpreter writes for the same command.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema": 1, "catalog_path": catalog_path, "policy": ["hybrid", "modified"],
            "threshold": 0.6, "buyers_sweep": [3, 7], "replications": 25, "seed": 2**40 + 3}))
        commands = {
            "simulate": ["simulate", "--config", str(config)],
            "opt": ["opt", catalog_path, "--buyers", "3"],
            "segment": ["segment", market_path, "--compare"],
            "gcurve": ["gcurve", "--lo", "0.6", "--hi", "0.62", "--step", "0.01"],
        }
        src = str(Path(mnlmarkets.__file__).resolve().parent.parent)
        for name in [*commands, "simulate", "opt"]:
            out = tmp_path / f"{name}.in-process"
            assert main([*commands[name], "--out", str(out)]) == 0
            fresh = tmp_path / f"{name}.fresh"
            subprocess.run(
                [sys.executable, "-m", "mnlmarkets.cli", *commands[name], "--out", str(fresh)],
                check=True, capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
            )
            assert out.read_bytes() == fresh.read_bytes(), name
        capsys.readouterr()


class TestNetworkCommand:
    def test_single_buyer_matches_closed_form(self, tmp_path, capsys):
        doc = {"schema": 1, "theta": [[2.0]], "capacities": [1]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["network", str(path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["converged"] and rep["capacity_ok"]
        assert rep["prices"][0] == pytest.approx(2.0, abs=1e-6)

    def test_inconsistent_market_warns_but_succeeds(self, tmp_path, capsys):
        doc = {"schema": 1, "theta": [[4.0, 4.0]], "capacities": [2]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["network", str(path)], capsys)
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["consistent"] is False

    @pytest.mark.parametrize("capacities", [[1.9], [True], [1e999]])
    def test_non_whole_capacity_exits_2(self, tmp_path, capsys, capacities):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": 1, "theta": [[2.0]], "capacities": capacities}))
        assert_one_error_line(*run(["segment", str(path)], capsys))

    def test_scalar_capacities_exit_2(self, tmp_path, capsys):
        # Once "error: market: 'int' object is not iterable".
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": 1, "theta": [[2.0]], "capacities": 5}))
        code, out, err = run(["segment", str(path)], capsys)
        assert_one_error_line(code, out, err)
        assert err == "error: market: capacities: 5 is not a sequence\n"

    @pytest.mark.parametrize("command", ["network", "segment"])
    def test_capacities_past_int64(self, tmp_path, capsys, command):
        # 2**62 + 2**62 wraps an int64 sum; in a 3-buyer market it must bind
        # no more than capacities of 3 do. 10**400 does not fit an int64.
        outputs = []
        for capacities in ([2**62, 2**62], [3, 3], [1, 10**400]):
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"schema": 1, "theta": [[2.0, 0.5, 1.0], [1.0, 1.5, 0.3]],
                                        "capacities": capacities}))
            outputs.append(run([command, str(path)], capsys))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert_one_error_line(*outputs[2])

    def test_deterministic(self, market_path, capsys):
        _, out1, _ = run(["network", market_path], capsys)
        _, out2, _ = run(["network", market_path], capsys)
        assert out1 == out2


class TestSegmentCommand:
    def test_diagonal_market(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "theta": [[2.0, 0.0], [0.0, 2.0]],
            "capacities": [1, 1],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["segment", str(path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["pools"] == [
            {"seller": 0, "buyers": [0]},
            {"seller": 1, "buyers": [1]},
        ]
        assert rep["total_revenue"] == pytest.approx(2.0, abs=1e-6)
        assert rep["lower_bound"] == pytest.approx(2 / (1 + math.e), abs=1e-9)

    def test_compare_and_csv(self, market_path, tmp_path, capsys):
        csv_path = tmp_path / "summary.csv"
        code, out, _ = run(
            ["segment", market_path, "--compare", "--csv", str(csv_path)], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert "whole_revenue" in rep and rep["whole_converged"]
        body = csv_path.read_text().strip().split("\n")
        assert body[0].startswith("pools,assigned_buyers,total_revenue")


    def test_compare_never_computes_the_residual(self, market_path, monkeypatch, capsys):
        # segment prints no residual, so it must not pay for the n best
        # responses behind it; network prints it and computes it once.
        calls = []
        real = network._best_response_gains
        monkeypatch.setattr(network, "_best_response_gains", lambda *a: calls.append(a) or real(*a))
        code, out, _ = run(["segment", market_path, "--compare"], capsys)
        assert code == 0 and "residual" not in json.loads(out) and calls == []
        code, out, _ = run(["network", market_path], capsys)
        assert code == 0 and json.loads(out)["residual"] >= 0.0 and len(calls) == 1


class TestAdversaryDemo:
    def test_ratio_column_decays(self, capsys):
        code, out, _ = run(["adversary-demo", "--growth", "4", "--horizon", "6"], capsys)
        assert code == 0
        ratios = [
            float(line.rsplit("=", 1)[1])
            for line in out.strip().split("\n")
            if line.strip().startswith("horizon=")
        ]
        assert len(ratios) == 6
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_overflow_exits_2(self, capsys):
        code, _, _ = run(["adversary-demo", "--growth", "10", "--horizon", "400"], capsys)
        assert code == 2

    def test_horizon_beyond_double_range_exits_2(self, capsys):
        assert_one_error_line(*run(["adversary-demo", "--horizon", str(10**400)], capsys))

    def test_nan_growth_exits_2_with_its_own_message(self, capsys):
        code, out, err = run(["adversary-demo", "--growth", "nan"], capsys)
        assert_one_error_line(code, out, err)
        assert err == "error: growth must exceed 1, got nan\n"


class TestExtremeQualities:
    def write_catalog(self, tmp_path, qualities):
        path = tmp_path / "extreme.json"
        doc = {"schema": 1, "qualities": qualities, "inventories": [1] * len(qualities)}
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", [["equilibrium"], ["opt", "--buyers", "3"]])
    @pytest.mark.parametrize("qualities", [[1e300], [1e300, 1.0, 2.0, 3.0, 4.0, 5.0]])
    def test_share_rounding_to_one_exits_2(self, tmp_path, capsys, command, qualities):
        path = self.write_catalog(tmp_path, qualities)
        code, out, err = run([command[0], path, *command[1:]], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tiny_no_purchase_share_solves(self, tmp_path, capsys):
        # The root q0 = 2.65e-65 lies about 216 bisections below 0.5.
        path = self.write_catalog(tmp_path, [150.0, 150.0])
        code, out, _ = run(["equilibrium", path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["q0"] < 1e-60
        assert doc["q0"] + sum(doc["demands"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command, qualities", [
        (["equilibrium"], [800.0, 800.0]),
        (["opt", "--buyers", "3"], [800.0] * 6),  # the batched column kernel
    ])
    def test_subnormal_no_purchase_share_exits_2(self, tmp_path, capsys, command, qualities):
        path = self.write_catalog(tmp_path, qualities)
        assert_one_error_line(*run([command[0], path, *command[1:]], capsys))

    def test_underflowing_quality_sells_nothing(self, tmp_path, capsys):
        path = self.write_catalog(tmp_path, [-800.0])
        code, out, _ = run(["equilibrium", path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["demands"] == [0.0] and doc["prices"] == [1.0]
        assert doc["total_revenue"] == 0.0
        code, out, _ = run(["opt", path, "--buyers", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == 0.0 and doc["support"] == []
