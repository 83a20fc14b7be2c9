"""Command-line interface: values, formats, exit codes, verification."""

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import time
import tracemalloc
from unittest import mock

import pytest

from poisson_moments import (WeightSpec, core, expectation, recurrences,
                             verify_rows)
from poisson_moments.cli import (CSV_HEADER, UsageError, _parse_float_grid,
                                 _prec_from, build_parser, main)

TWO_OVER_E = 0.7357588823428846


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_value(text):
    mobj = re.search(r"value=([^\s]+)", text)
    assert mobj, f"no value field in output: {text!r}"
    return float(mobj.group(1))


class TestMoment:
    def test_closed_mean_deviation(self):
        code, out, _ = run(["moment", "--mean", "1", "--order", "1",
                            "--center", "1", "--method", "closed"])
        assert code == 0
        assert parse_value(out) == pytest.approx(TWO_OVER_E, rel=1e-14)

    def test_recurrence_order_zero(self):
        code, out, _ = run(["moment", "--mean", "1", "--order", "0",
                            "--center", "0", "--method", "recurrence"])
        assert code == 0
        assert parse_value(out) == 1.0

    def test_katti_matches_recurrence(self):
        code1, out1, _ = run(["moment", "--mean", "2", "--order", "3",
                              "--center", "2", "--method", "katti"])
        code2, out2, _ = run(["moment", "--mean", "2", "--order", "3",
                              "--center", "2", "--method", "recurrence"])
        assert code1 == code2 == 0
        assert parse_value(out1) == pytest.approx(parse_value(out2), rel=1e-10)

    def test_threshold_gives_signed_moment(self):
        code, out, _ = run(["moment", "--mean", "1", "--order", "0",
                            "--center", "0", "--threshold", "0"])
        assert code == 0
        assert parse_value(out) == pytest.approx(1 - 2 * math.exp(-1), rel=1e-13)

    def test_oracle_method_reports_certificate(self):
        code, out, _ = run(["moment", "--mean", "4", "--order", "2",
                            "--center", "4", "--method", "oracle"])
        assert code == 0
        assert parse_value(out) == pytest.approx(4.0, rel=1e-12)
        assert "certified_error=" in out
        cert = re.search(r"certified_error=([^\s]+)", out).group(1)
        assert cert != "-" and float(cert) > 0

    def test_oracle_far_center_is_quick(self):
        t0 = time.perf_counter()
        code, out, _ = run(["moment", "--method", "oracle", "--mean", "2",
                            "--order", "3", "--center", "1e9"])
        assert code == 0 and time.perf_counter() - t0 < 1.0
        # E |X - a|^3 = a^3 - 3 a^2 m + 3 a (m + m^2) - E X^3 for a past X
        a = 1e9
        assert parse_value(out) == pytest.approx(
            a ** 3 - 6 * a ** 2 + 18 * a - 22, rel=1e-15)
        res = expectation(2.0, WeightSpec.abs_power(3, a), 1e-18)
        assert res.cutoff < 1000

    def test_katti_at_large_mean_and_small_center(self):
        # the Kummer value row overflows binary64 at m = 1000; the native
        # assembly is redone at 256 bits instead of printing 0
        code, out, _ = run(["moment", "--method", "katti", "--mean", "1000",
                            "--center", "0.5", "--order", "3"])
        assert code == 0
        assert " value=1001500249.875 " in out

    @pytest.mark.parametrize("order,threshold", [
        ("3", "1e200"), ("30", "1e20"), ("3", "1e300")])
    def test_far_threshold_matches_the_oracle(self, order, threshold):
        # the pmf factor at floor(b) underflows to zero in binary64; its
        # power of the far threshold used to overflow and exit 2
        r, b = int(order), float(threshold)
        res = expectation(2.0, WeightSpec.signed_power(r, 0.0, b), 1e-18)
        for method in ("recurrence", "shifted"):
            code, out, err = run(["moment", "--mean", "2", "--order", order,
                                  "--center", "0", "--threshold", threshold,
                                  "--method", method])
            assert code == 0, err
            assert verify_rows([(parse_value(out), res)], 1e-9)[0].passed

    def test_extended_precision_flag(self):
        code, out, _ = run(["moment", "--mean", "1", "--order", "1",
                            "--center", "1", "--precision-bits", "128"])
        assert code == 0
        assert parse_value(out) == pytest.approx(TWO_OVER_E, rel=1e-14)


class TestExitCodes:
    def test_nonpositive_mean_is_usage_error(self):
        code, _, err = run(["moment", "--mean", "-1", "--order", "0",
                            "--center", "0"])
        assert code == 2 and "mean" in err

    def test_unknown_method_is_usage_error(self):
        code, _, _ = run(["moment", "--mean", "1", "--order", "0",
                          "--center", "0", "--method", "guess"])
        assert code == 2

    def test_small_precision_bits_is_usage_error(self):
        code, _, _ = run(["moment", "--mean", "1", "--order", "0",
                          "--center", "0", "--precision-bits", "32"])
        assert code == 2

    def test_katti_even_order_is_precondition(self):
        code, _, err = run(["moment", "--mean", "1", "--order", "2",
                            "--center", "1", "--method", "katti"])
        assert code == 3 and "precondition" in err

    @pytest.mark.parametrize("flags", [
        ["--center", "1", "--threshold", "nan"],
        ["--center", "1", "--threshold", "inf"],
        ["--center", "nan"],
        ["--center=-inf", "--method", "katti"],
    ])
    def test_nonfinite_center_or_threshold_is_usage_error(self, flags):
        code, _, err = run(["moment", "--mean", "2", "--order", "3"] + flags)
        assert code == 2 and "must be finite" in err

    @pytest.mark.parametrize("centers", ["m/0", "1e308*10"])
    def test_nonfinite_grid_expression_is_usage_error(self, centers):
        code, _, err = run(["table", "--mean-grid", "2", "--centers", centers,
                            "--max-order", "2"])
        assert code == 2 and centers in err

    def test_overflowing_order_is_usage_error(self):
        code, out, err = run(["moment", "--mean", "2", "--order", "401",
                              "--center", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: r_max = 401") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--method", "katti"],
        ["--method", "shifted"],
        ["--method", "shifted", "--threshold", "1"],
        ["--threshold", "1"],
    ])
    def test_overflowing_order_is_usage_error_for_every_method(self, flags):
        code, out, err = run(["moment", "--mean", "2", "--order", "401",
                              "--center", "2"] + flags)
        assert code == 2 and out == ""
        assert "too large for binary64" in err

    @pytest.mark.parametrize("argv,flag", [
        *((["moment", "--mean", "2", "--center", "0", "--method", method,
            "--precision-bits", "64"], "--order")
          for method in ("recurrence", "shifted", "katti", "closed",
                         "oracle")),
        (["table"], "--max-order"),
        (["verify"], "--max-order"),
        (["bench", "--mean", "2"], "--max-order"),
        (["poly"], "--max-order"),
    ], ids=["moment", "moment-shifted", "moment-katti", "moment-closed",
            "moment-oracle", "table", "verify", "bench", "poly"])
    def test_order_past_the_ceiling_is_usage_error(self, argv, flag):
        # refused before any routing: a shifted or katti refusal would be
        # a precondition row, and at --order 3000 the 64-bit recurrence
        # ran for minutes
        past = str(core.MAX_ORDER + 1)
        code, out, err = run(argv + [flag, past])
        assert code == 2 and out == ""
        assert err == (f"error: {flag} must lie in 0..{core.MAX_ORDER}, "
                       f"got {past}\n")

    @pytest.mark.parametrize("argv", [
        ["moment", "--mean", "1e12", "--order", "1", "--center", "1e12"],
        ["moment", "--mean", "1e12", "--order", "1", "--center", "1e12",
         "--method", "shifted"],
        ["moment", "--mean", "1e12", "--order", "3", "--center", "1e12",
         "--method", "closed"],
        ["moment", "--mean", "1e20", "--order", "2", "--center", "0",
         "--threshold", "1e20", "--precision-bits", "256"],
        ["table", "--mean-grid", "1e20"],
        ["table", "--mean-grid", "1e20", "--methods", "shifted,closed",
         "--max-order", "3"],
        ["verify", "--mean-grid", "1e20"],
    ], ids=["moment", "shifted", "closed", "signed-256", "table",
            "table-shifted-closed", "verify"])
    def test_mean_above_the_cdf_ceiling_is_usage_error(self, argv):
        # every route that sums the cdf refuses the mean at once: before,
        # the first took 10 s and a mean of 1e20 did not finish
        t0 = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - t0 < 5.0
        assert code == 2 and out == ""
        assert err.startswith(f"error: mean m = {float(argv[2])!r} is above")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["moment", "--mean", "1e7", "--order", "2", "--center", "1e7",
         "--method", "oracle"],
        ["moment", "--mean", "1e12", "--order", "2", "--center", "1e12",
         "--method", "oracle"],
        ["table", "--mean-grid", "1e7", "--methods", "oracle"],
        ["verify", "--mean-grid", "1e7"],
        ["verify", "--mean-grid", "1e7", "--precision-bits", "256",
         "--tol", "1e-18"],
        ["bench", "--mean", "1e7", "--max-order", "3"],
    ], ids=["moment", "moment-1e12", "table", "verify", "verify-256",
            "bench"])
    def test_mean_above_the_oracle_ceiling_is_usage_error(self, argv):
        # the oracle's pass sums over 2m terms: at m = 1e12 the first ran
        # past a 15 s timeout, and verify's series route at a = 0 and
        # m = 1e7 does not finish either
        t0 = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - t0 < 5.0
        assert code == 2 and out == ""
        assert err == (f"error: mean m = {float(argv[2])!r} is above 1e+06, "
                       f"the largest the oracle sums\n")

    @pytest.mark.parametrize("flags", [[], ["--precision-bits", "256"]],
                             ids=["native", "256"])
    def test_mean_above_the_kummer_ceiling_is_usage_error(self, flags):
        # the series route summed about m terms per value: at m = 1e7 and
        # a = 0 this did not finish within 30 s
        t0 = time.perf_counter()
        code, out, err = run(["moment", "--mean", "1e7", "--order", "3",
                              "--center", "0", "--method", "katti"] + flags)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == ("error: mean m = 10000000.0 is above 100000, the "
                       "largest the Kummer series route sums\n")

    @pytest.mark.parametrize("mean", ["1e6", "2e5"])
    def test_verify_refuses_the_kummer_ceiling_before_the_oracle_pass(
            self, mean):
        # a center >= 0 summed its whole oracle pass before the series route
        # refused the mean: 9.1 s at m = 1e6 and 2.2 s at m = 2e5
        t0 = time.perf_counter()
        code, out, err = run(["verify", "--mean-grid", mean,
                              "--max-order", "4"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == (f"error: mean m = {float(mean)!r} is above 100000, "
                       f"the largest the Kummer series route sums\n")

    def test_other_library_value_error_is_not_a_usage_error(self, monkeypatch):
        # only the named domain errors map to exit 2; anything else is a
        # fault and keeps its traceback
        import poisson_moments.cli as cli

        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "_rows", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run(["moment", "--mean", "2", "--order", "3", "--center", "2"])

    def test_katti_negative_center_is_precondition(self):
        code, out, err = run(["moment", "--mean", "1", "--order", "1",
                              "--center", "-0.5", "--method", "katti"])
        assert code == 3 and out == ""
        assert err == ("method precondition violated: the series route "
                       "requires a >= 0 (the factorial argument floor(a)+1 "
                       "must be a nonnegative integer); use the recurrence "
                       "path for negative centers\n")

    @pytest.mark.parametrize("mean,order", [("2e5", "1"), ("1e5", "151")],
                             ids=["kummer-ceiling", "order-overflow"])
    def test_katti_negative_center_precedes_the_ceilings(self, mean, order):
        # the center is refused before the central table or a series is
        # built: a mean above the Kummer ceiling, or an order whose native
        # central table overflows, would otherwise exit 2
        code, _, err = run(["moment", "--mean", mean, "--order", order,
                            "--center", "-0.5", "--method", "katti"])
        assert code == 3 and "requires a >= 0" in err

    def test_closed_off_mean_is_precondition(self):
        code, _, _ = run(["moment", "--mean", "1", "--order", "1",
                          "--center", "1.5", "--method", "closed"])
        assert code == 3

    def test_closed_with_threshold_is_precondition(self):
        code, _, _ = run(["moment", "--mean", "1", "--order", "1",
                          "--center", "1", "--threshold", "1",
                          "--method", "closed"])
        assert code == 3

    def test_shifted_order_zero_is_precondition(self):
        code, _, _ = run(["moment", "--mean", "1", "--order", "0",
                          "--center", "0", "--method", "shifted"])
        assert code == 3

    def test_empty_grid_is_usage_error(self):
        code, _, _ = run(["verify", "--mean-grid", ","])
        assert code == 2

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_nonpositive_bench_repeats_is_usage_error(self, repeats):
        code, out, err = run(["bench", "--mean", "2", "--repeats", repeats])
        assert code == 2 and out == ""
        assert err == "error: --repeats must be positive\n"

    @pytest.mark.parametrize("tol", ["1e-320", "1e-290", "inf"])
    def test_uncertifiable_verify_tol_is_usage_error(self, tol):
        # 1e-320 * 1e-6 underflows to an oracle eps of 0, 1e-290 * 1e-6 is
        # below the certifiable range, and inf would pass every row
        code, out, err = run(["verify", "--mean-grid", "2", "--tol", tol,
                              "--max-order", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: --tol must be finite")

    def test_smallest_certifiable_verify_tol_runs(self):
        code, _, err = run(["verify", "--mean-grid", "2", "--tol", "1e-283",
                            "--max-order", "2", "--precision-bits", "1024",
                            "--thresholds", "a"])
        assert code in (0, 1) and "error" not in err

    @pytest.mark.parametrize("argv", [
        ["moment", "--mean", "2", "--order", "3", "--center", "1e200",
         "--method", "oracle"],
        ["moment", "--mean", "2", "--order", "3", "--center", "1e200",
         "--precision-bits", "256"],
        ["verify", "--mean-grid", "2", "--centers", "1e300", "--max-order", "2"],
    ])
    def test_far_center_is_usage_error(self, argv):
        # the oracle's cutoff search used to overflow math.exp here; now the
        # value itself is out of the double range of the output
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert "binary64" in err and "Traceback" not in err

    def test_far_threshold_verify_passes(self):
        code, out, err = run(["verify", "--mean-grid", "2", "--centers", "0",
                              "--thresholds", "1e300", "--max-order", "3"])
        assert code == 0, err
        assert "result: PASS" in out

    @pytest.mark.parametrize("argv", [
        "moment --mean 1e5 --order 151 --center 700 --method katti "
        "--precision-bits 256",
        "moment --mean 1e300 --order 151 --center 0 --method shifted "
        "--precision-bits 128",
        "verify --mean-grid 2 --centers 1e300 --max-order 1",
    ], ids=["katti-256", "shifted-128", "verify-far-center"])
    def test_values_past_the_double_range_end_in_an_exit_code(self, argv):
        # each meets an integer past 2^1024 or a coefficient past the
        # double range, which must not end in a traceback
        code, _, err = run(argv.split())
        assert code in (0, 2), err

    def test_far_center_verify_runs_in_extended_precision(self):
        code, out, _ = run(["verify", "--mean-grid", "2", "--centers", "1e300",
                            "--max-order", "2", "--precision-bits", "256",
                            "--tol", "1e-18"])
        assert code == 0 and "result: PASS" in out

    def test_range_grid_is_counted_before_it_is_built(self):
        # 100,001 points, one past the limit: refused with no point made
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="more than 100000 points"):
                _parse_float_grid("0:100000:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a list of the points takes over 3 MB
        # so a grid of about 1e18 points is refused as quickly
        t0 = time.perf_counter()
        code, out, err = run(["table", "--mean-grid", "1:1e9:1e-9"])
        assert code == 2 and out == "" and time.perf_counter() - t0 < 1.0
        assert err == ("error: range grid '1:1e9:1e-9' has more than "
                       "100000 points\n")

    @pytest.mark.parametrize("grid,match", [
        ("1e20:1e20:5000", "too small to move past"),
        ("inf:inf:1", "finite ends and step"),
        ("0:nan:1", "finite ends and step"),
    ])
    def test_range_grid_that_cannot_advance_is_usage_error(self, grid, match):
        # x + step == x at 1e20 (within the point limit), and x = inf
        # never passes stop = inf: both used to loop forever
        with pytest.raises(UsageError, match=match):
            _parse_float_grid(grid)

    def test_bad_grid_expression_is_usage_error(self):
        code, _, _ = run(["table", "--mean-grid", "1", "--centers", "q+1"])
        assert code == 2


class TestTable:
    FLAGS = ["table", "--mean-grid", "1,2", "--centers", "0,m",
             "--max-order", "3", "--methods", "recurrence,shifted"]

    def test_csv_header_exact(self):
        code, out, _ = run(self.FLAGS + ["--format", "csv"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        assert header == "m,a,b,r,method,value,condition,certified_error,elapsed_ns"

    def test_csv_json_numeric_identity(self):
        code_c, out_c, _ = run(self.FLAGS + ["--format", "csv"])
        code_j, out_j, _ = run(self.FLAGS + ["--format", "json"])
        assert code_c == code_j == 0
        rows = list(csv.DictReader(io.StringIO(out_c)))
        objs = json.loads(out_j)
        assert len(rows) == len(objs) > 0
        for row, obj in zip(rows, objs):
            # timings legitimately differ between the two runs
            for key in ("m", "a", "b", "r", "value", "condition",
                        "certified_error"):
                csv_val = row[key] if key != "r" else row["r"]
                json_val = obj[key]
                if csv_val == "":
                    assert json_val is None
                elif key == "r":
                    assert int(csv_val) == json_val
                else:
                    assert float(csv_val) == json_val
            assert row["method"] == obj["method"]

    def test_inapplicable_rows_skipped(self):
        code, out, _ = run(["table", "--mean-grid", "1", "--centers", "m",
                            "--max-order", "2", "--methods", "katti",
                            "--format", "json"])
        assert code == 0
        objs = json.loads(out)
        assert [o["r"] for o in objs] == [1]  # even orders skipped

    def test_signed_table_with_thresholds(self):
        code, out, _ = run(["table", "--mean-grid", "2", "--centers", "m",
                            "--thresholds", "m/2", "--max-order", "2",
                            "--format", "json"])
        assert code == 0
        objs = json.loads(out)
        assert all(o["b"] == 1.0 for o in objs)


class TestVerify:
    def test_small_grid_passes(self):
        code, out, _ = run(["verify", "--mean-grid", "1,2", "--max-order", "4",
                            "--tol", "1e-9"])
        assert code == 0
        assert "result: PASS" in out

    def test_default_grid_passes(self):
        code, out, _ = run(["verify"])
        assert code == 0, out
        assert "result: PASS" in out

    def test_unreachable_tolerance_fails_in_native(self):
        code, out, err = run(["verify", "--mean-grid", "1", "--max-order", "6",
                              "--tol", "1e-18"])
        assert code == 1
        assert "result: FAIL" in out
        assert "FAIL method=" in err

    def test_extended_precision_passes_tight_tolerance(self):
        code, out, _ = run(["verify", "--mean-grid", "1,2", "--max-order", "4",
                            "--tol", "1e-18", "--precision-bits", "256",
                            "--rel-tol", "1e-30"])
        assert code == 0, out

    def test_readme_extended_run_passes_without_rel_tol(self):
        # --rel-tol follows the mode (1e-20 at 256 bits), and the shift
        # forms a - 1 at 256 bits, so neither katti nor shifted rows fail
        code, out, err = run(["verify", "--mean-grid", "0.5:2.5:0.5",
                              "--max-order", "6", "--precision-bits", "256",
                              "--tol", "1e-18"])
        assert code == 0, err
        assert "result: PASS" in out and err == ""

    def test_extended_lattice_constants_take_one_width(self, monkeypatch):
        # the tables, the closed forms and the Kummer route all take cdf and
        # the pmf factor at W + 64 = 320 bits; none keys a memo at 256
        widths = {}
        for name in ("_cdf_sum", "_pmf_anchor"):
            memo = getattr(core, name)

            def spy(k, mv, width, memo=memo, name=name):
                widths.setdefault(name, set()).add(width)
                return memo(k, mv, width)
            monkeypatch.setattr(core, name, spy)
        code, out, _ = run(["verify", "--mean-grid", "2", "--max-order", "6",
                            "--precision-bits", "256"])
        assert code == 0, out
        assert widths == {"_cdf_sum": {320}, "_pmf_anchor": {320}}

    def test_rel_tol_default_follows_precision_mode(self):
        native = build_parser().parse_args(["verify"])
        extended = build_parser().parse_args(["verify", "--precision-bits", "256"])
        assert _prec_from(native).rel_tol == 1e-12
        assert _prec_from(extended).rel_tol == 1e-20
        given = build_parser().parse_args(["verify", "--precision-bits", "256",
                                           "--rel-tol", "1e-30"])
        assert _prec_from(given).rel_tol == 1e-30

    def test_native_katti_rows_are_gated_when_the_series_stops_inside_tol(self):
        # four centers >= 0 (0, m, fl+0.3, m+1) and orders 1 and 3: eight
        # katti rows, gated at rel_tol 1e-12 <= tol / 100 and only
        # reported at rel_tol 1e-10
        argv = ["verify", "--mean-grid", "2", "--max-order", "4"]
        counts = []
        for extra in ([], ["--rel-tol", "1e-10"]):
            code, out, _ = run(argv + extra)
            assert code == 0 and "katti" in out, out
            counts.append(int(re.search(r"gated_rows=(\d+)", out)[1]))
        assert counts[0] - counts[1] == 8

    def test_extended_katti_rows_follow_the_native_gate(self):
        # the series stops at rel_tol 1e-20, above tol / 100: its rows are
        # reported, not gated, as native ones are at a looser --rel-tol;
        # gated, 160 of them failed
        code, out, err = run(["verify", "--precision-bits", "256",
                              "--tol", "1e-60"])
        assert code == 0 and err == "", err
        assert re.search(r"^  katti +worst_rel_err=", out, re.M), out
        assert "result: PASS" in out

    def test_reports_worst_error_per_method(self):
        code, out, _ = run(["verify", "--mean-grid", "1", "--max-order", "2",
                            "--tol", "1e-6"])
        assert code == 0
        for method in ("recurrence", "shifted", "closed", "katti"):
            assert method in out


class TestBench:
    ARGV = ["bench", "--mean", "5", "--max-order", "4", "--repeats", "2"]

    def test_bench_reports_both_methods(self):
        code, out, _ = run(self.ARGV + ["--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert [r["method"] for r in rows] == ["recurrence", "oracle"]
        assert all(r["elapsed_ns"] > 0 for r in rows)

    def test_csv_rows(self):
        code, out, err = run(self.ARGV + ["--format", "csv"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "method,elapsed_ns"
        assert re.fullmatch(r"recurrence,[1-9]\d*", lines[1])
        assert re.fullmatch(r"oracle,[1-9]\d*", lines[2])
        assert len(lines) == 3 and out.endswith("\n")

    def test_text_rows_and_ratio(self):
        code, out, err = run(self.ARGV)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 3 and out.endswith("\n")
        rec = re.fullmatch(r"recurrence: (\d+) ns \(median of 2\)", lines[0])
        orc = re.fullmatch(r"oracle: (\d+) ns \(median of 2\)", lines[1])
        assert rec and orc
        ratio = int(orc.group(1)) / max(1, int(rec.group(1)))
        assert lines[2] == f"oracle/recurrence ratio: {ratio:.1f}"


class TestParser:
    def test_built_once_across_main_calls(self):
        build_parser.cache_clear()
        assert run(["poly", "--max-order", "1"])[0] == 0
        assert run(["poly", "--max-order", "2"])[0] == 0
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()

    def test_usage_follows_columns_on_every_call(self):
        # a usage error prints the subcommand's usage, wrapped to COLUMNS
        lines = {}
        for columns in ("200", "50"):
            err = io.StringIO()
            with mock.patch.dict(os.environ, {"COLUMNS": columns}), \
                    contextlib.redirect_stderr(err):
                assert main(["moment", "--mean", "2"]) == 2
            usage = err.getvalue().split("\npoisson-moments moment: error")[0]
            lines[columns] = usage.splitlines()
        assert len(lines["200"]) == 2 and len(lines["200"][0]) > 150
        # one option to a line after the first
        assert len(lines["50"]) == 8


class TestParserStreams:
    # argparse's own messages go to the caller's streams, not the process's
    def test_usage_error_lands_in_err(self, capsys):
        code, out, err = run(["verify", "--centers"])
        assert code == 2 and out == ""
        assert err.startswith("usage: poisson-moments verify")
        assert err.endswith("error: argument --centers: expected one "
                            "argument\n")
        assert capsys.readouterr() == ("", "")

    def test_help_lands_in_out(self, capsys):
        code, out, err = run(["moment", "--help"])
        assert code == 0 and err == ""
        assert out.startswith("usage: poisson-moments moment")
        assert capsys.readouterr() == ("", "")


class TestPoly:
    def test_text_rows(self):
        code, out, _ = run(["poly", "--max-order", "4"])
        assert code == 0
        assert "mu4: [0, 1, 3]" in out

    def test_json_rows(self):
        code, out, _ = run(["poly", "--max-order", "6", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert rows[6] == {"order": 6, "coeffs": [0, 1, 25, 15]}

    def test_csv_rows(self):
        code, out, _ = run(["poly", "--max-order", "4", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order,coeffs"
        assert lines[5] == '4,0 1 3'


class TestOptionValuesStartingWithDash:
    # argparse reads a token that starts with '-' as an option unless it
    # looks like a negative number ("-1", "-0.5"), so these exited 2 with
    # "expected one argument"
    @pytest.mark.parametrize("argv,option,value", [
        (["moment", "--mean", "2", "--order", "3"], "--center", "-1e-3"),
        (["moment", "--mean", "2", "--order", "3"], "--center", "-1e+2"),
        (["moment", "--mean", "2", "--order", "3", "--center", "1"],
         "--threshold", "-2e0"),
        (["table", "--mean-grid", "2", "--max-order", "2"], "--centers",
         "-0.5,m"),
        (["table", "--mean-grid", "2", "--max-order", "2"], "--centers", "-m"),
        (["table", "--mean-grid", "2", "--max-order", "2"], "--thresholds",
         "-1,a"),
    ], ids=["center-1e-3", "center-1e+2", "threshold-2e0", "centers-0.5,m",
            "centers-m", "thresholds-1,a"])
    def test_space_separated_value_reads_as_the_equals_form(
            self, argv, option, value):
        code, out, err = run(argv + [option, value, "--format", "csv"])
        assert code == 0, err
        expected = run(argv + [f"{option}={value}", "--format", "csv"])
        # the records, with their elapsed_ns masked
        mask = functools.partial(re.sub, r",\d+$", ",*", flags=re.MULTILINE)
        assert (code, mask(out), err) == (expected[0], mask(expected[1]),
                                          expected[2])

    @pytest.mark.parametrize("tail", [
        ["--center"],
        ["--center", "--method", "katti"],
        ["--center", "-h"],
        ["--center", "1", "--threshold"],
    ], ids=["last", "before-flag", "before-help", "threshold-last"])
    def test_missing_value_is_still_a_usage_error(self, tail):
        code, out, err = run(["moment", "--mean", "2", "--order", "3"] + tail)
        option = tail[-1] if tail[-1] == "--threshold" else "--center"
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument {option}: expected one "
                            f"argument\n")


def _grid_points(means, centers, thresholds):
    """(m, a, b) of a ``table`` grid, in its order; b None without
    thresholds.  Each center and threshold is a function of m (and a)."""
    for m in means:
        for a in dict.fromkeys(c(m) for c in centers):
            for b in (dict.fromkeys(t(m, a) for t in thresholds)
                      if thresholds else [None]):
                yield m, a, b


class TestRouter:
    """Each command builds every distinct table once and reads every order
    from it, and ``moment`` reads the same entries as ``table``."""

    @pytest.mark.parametrize("argv,builds", [
        ("table --mean-grid 1:50:1 --centers m,0,fl+0.3 --max-order 30",
         300),
        ("verify", 159),
        ("verify --mean-grid 0.5:2.5:0.5 --max-order 6 --precision-bits 256 "
         "--tol 1e-18", 88),
        # the golden table-central-native-text case
        ("table --mean-grid 0.5,2,7.5 --centers 0,m,fl+0.3 --max-order 5 "
         "--methods recurrence,shifted,closed,katti,oracle --format text",
         31),
    ], ids=["table-grid", "verify-default", "verify-readme-256",
            "table-golden"])
    def test_each_distinct_table_is_built_once(self, monkeypatch, argv,
                                               builds):
        # one build per distinct (a, floor(b)) of each mean; one per
        # (method, m, a, b, r) would make 4650, 240, 150 and 171, and one
        # per (a, b) 300, 175, 103 and 31
        count = []
        finish = recurrences._finish

        def spy(*args):
            count.append(args[:4])
            return finish(*args)
        monkeypatch.setattr(recurrences, "_finish", spy)
        code, _, err = run(argv.split())
        assert code == 0, err
        assert len(count) == builds

    @pytest.mark.parametrize("flags", [[], ["--precision-bits", "128"]],
                             ids=["native", "128"])
    def test_thresholds_with_one_floor_share_one_table(self, monkeypatch,
                                                       flags):
        # a signed table reads b only as floor(b): 2.2 and 2.7 take one
        # build, and their rows are the same numbers
        built = []
        finish = recurrences._finish

        def spy(*args):
            built.append(args[:4])
            return finish(*args)
        monkeypatch.setattr(recurrences, "_finish", spy)
        code, out, err = run(["table", "--mean-grid", "3", "--centers", "1",
                              "--thresholds", "2.2,2.7", "--max-order", "6",
                              "--format", "json", *flags])
        assert code == 0, err
        assert built == [("signed", 3.0, 1.0, 2.2)]
        rows = {}
        for o in json.loads(out):
            rows.setdefault(o["b"], []).append((o["value"], o["condition"]))
        assert rows[2.2] == rows[2.7] and len(rows[2.2]) == 7

    @pytest.mark.parametrize("flags", [[], ["--precision-bits", "128"],
                                       ["--precision-bits", "256"]],
                             ids=["native", "128", "256"])
    @pytest.mark.parametrize("thresholds", [None, "a,-1.5,m/2"],
                             ids=["absolute", "signed"])
    def test_moment_records_equal_table_records(self, flags, thresholds):
        grid = ["--mean-grid", "0.5,2,7.5", "--centers", "0,m,fl+0.3,-0.5",
                "--max-order", "7"]
        if thresholds:
            grid += ["--thresholds", thresholds]
        points = list(_grid_points(
            (0.5, 2.0, 7.5),
            [lambda m: 0.0, lambda m: m, lambda m: math.floor(m) + 0.3,
             lambda m: -0.5],
            thresholds and [lambda m, a: a, lambda m, a: -1.5,
                            lambda m, a: m / 2]))

        def fields(rec):
            return {k: v for k, v in rec.items() if k != "elapsed_ns"}
        for method in ("recurrence", "shifted", "closed", "katti", "oracle"):
            code, out, err = run(["table", *grid, "--methods", method,
                                  "--format", "json", *flags])
            assert code == 0, err
            table = {(o["m"], o["a"], o["b"], o["r"]): fields(o)
                     for o in json.loads(out)}
            served = set()
            for m, a, b in points:
                for r in range(8):
                    argv = ["moment", f"--mean={m!r}", f"--center={a!r}",
                            f"--order={r}", "--method", method,
                            "--format", "json", *flags]
                    if b is not None:
                        argv.append(f"--threshold={b!r}")
                    code, out, err = run(argv)
                    key = (m, a, b, r)
                    if code == 3:  # table skips exactly these rows
                        assert key not in table, (method, key)
                        continue
                    assert code == 0, err
                    rec, = json.loads(out)
                    assert fields(rec) == table[key], (method, key)
                    served.add(key)
            assert served == set(table), method
