"""Command-line front end.

Subcommands: ``moment`` (one value), ``table`` (grid of values as text, CSV
or JSON), ``verify`` (cross-method sweep against the oracle), ``bench``
(median-of-5 timings per method), ``poly`` (exact moment-polynomial
coefficients).

Exit codes: 0 ok, 1 verification failure, 2 usage/validation (an order
above ``core.MAX_ORDER`` or too large for binary64 and a mean above the
cdf, oracle or Kummer-series ceiling included), 3 method precondition
violation.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import functools
import json
import math
import re
import sys
import time
from itertools import accumulate
from statistics import median
from typing import List, Optional

from . import oracle as oracle_mod
from .core import (MAX_ORACLE_MEAN, MAX_ORDER, MIN_CERTIFIABLE_EPS,
                   MeanTooLargeError, _capped_mean, as_mean)
from .hypergeom import _check_center, katti_abs_moment_table
from .polynomials import moment_polynomials
from .precision import PrecisionSpec
from .recurrences import (CONDITION_FLAG_THRESHOLD, OrderOverflowError,
                          _shift_down, abs_moment_3_closed,
                          abs_moment_5_closed, central_moment_table,
                          mean_deviation, shift_identity,
                          signed_moment_table)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

_MOMENT_METHODS = ("recurrence", "shifted", "katti", "closed", "oracle")

DEFAULT_MEAN_GRID = "0.1,0.5,1,2,5,10,25,50"
DEFAULT_CENTER_GRID = "0,m,fl+0.3,m+1"
DEFAULT_THRESHOLD_GRID = "a,0,m/2"

# the most points a start:stop:step range grid may have
MAX_RANGE_POINTS = 100_000

# E |X - m|^r in closed form, by order
_CLOSED_FORMS = {1: mean_deviation, 3: abs_moment_3_closed,
                 5: abs_moment_5_closed}


class UsageError(Exception):
    """Flag/grid validation failure (exit 2)."""


class PreconditionError(Exception):
    """A method was asked for outside its domain (exit 3)."""


# library errors for a finite argument too large to compute with (exit 2)
_TOO_LARGE = (OrderOverflowError, MeanTooLargeError)


# ---------------------------------------------------------------------------
# records and serialization


# the fields of an output record, in order
CSV_HEADER = ["m", "a", "b", "r", "method", "value", "condition",
              "certified_error", "elapsed_ns"]


def _f17(x: Optional[float]) -> str:
    # 17 significant digits round-trip binary64 exactly.
    return "" if x is None else format(float(x), ".17g")


def _cell(v) -> str:
    # a field as text: strings and integers as they are, a list of
    # integers space-separated, floats by _f17
    if isinstance(v, list):
        return " ".join(map(str, v))
    return str(v) if isinstance(v, (str, int)) else _f17(v)


def _emit(rows: list, header: list, fmt: str, out, line) -> None:
    """Write ``rows``, each a sequence of fields in ``header`` order: csv
    cells by _cell, a json list of objects, or one ``line(row)`` of text
    per row."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    elif fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
        out.write("\n")
    else:
        out.writelines(line(row) + "\n" for row in rows)


def _record_line(rec: tuple) -> str:
    return " ".join(f"{name}={_cell(v) or '-'}"
                    for name, v in zip(CSV_HEADER, rec))


# ---------------------------------------------------------------------------
# grid parsing


@functools.lru_cache(maxsize=256)
def _parse_expr(src: str) -> ast.Expression:
    """``src`` parsed, once per text."""
    try:
        return ast.parse(src.strip(), mode="eval")
    except SyntaxError:
        raise UsageError(f"bad grid expression {src!r}") from None


def _eval_expr(src: str, names: dict) -> float:
    """Tiny arithmetic evaluator for grid tokens like ``fl+0.3`` or
    ``m/2``."""

    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            try:
                return names[node.id]
            except KeyError:
                raise UsageError(
                    f"unknown name {node.id!r} in grid expression {src!r}"
                ) from None
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: lambda x, y: x + y, ast.Sub: lambda x, y: x - y,
                   ast.Mult: lambda x, y: x * y, ast.Div: lambda x, y: x / y}
            fn = ops.get(type(node.op))
            if fn is not None:
                return fn(ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        raise UsageError(f"unsupported grid expression {src!r}")

    try:
        value = ev(_parse_expr(src).body)
    except ZeroDivisionError:
        raise UsageError(f"division by zero in grid expression {src!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"grid expression {src!r} is not finite")
    return value


def _parse_float_grid(spec: str) -> List[float]:
    """Comma list ``1,2,5`` or range ``start:stop:step`` (stop inclusive)."""
    spec = spec.strip()
    if not spec:
        raise UsageError("empty grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"range grid must be start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"bad range grid {spec!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"range grid {spec!r} must have finite ends and step")
        if step <= 0:
            raise UsageError("grid step must be positive")
        end = stop * (1 + 1e-12)
        # counted before any point is made, so a huge grid costs nothing
        if (end - start) / step >= MAX_RANGE_POINTS:
            raise UsageError(f"range grid {spec!r} has more than "
                             f"{MAX_RANGE_POINTS} points")
        out = []
        x = start
        while x <= end:
            out.append(x)
            if x + step == x:
                raise UsageError(f"grid step {step!r} is too small to move "
                                 f"past {x!r}")
            x += step
    else:
        try:
            out = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
        except ValueError:
            raise UsageError(f"bad grid {spec!r}") from None
    if not out:
        raise UsageError(f"grid {spec!r} is empty")
    return out


def _parse_exprs(spec: str) -> List[str]:
    toks = [tok.strip() for tok in spec.split(",") if tok.strip() != ""]
    if not toks:
        raise UsageError("empty grid")
    return toks


def _grid(args, threshold_spec: Optional[str]):
    """Parse the grids now; return a walk yielding, per mean, (m, centers),
    where ``centers`` yields (a, thresholds or None) per center, each
    expression evaluated when it is reached."""
    means = [_mean_or_usage(x) for x in _parse_float_grid(args.mean_grid)]
    center_exprs = _parse_exprs(args.centers)
    threshold_exprs = (None if threshold_spec is None
                       else _parse_exprs(threshold_spec))

    def centers(mv):
        names = {"m": mv, "fl": float(math.floor(mv))}
        # dict.fromkeys drops repeated values and keeps the first order
        for a in dict.fromkeys([_eval_expr(e, names) for e in center_exprs]):
            tnames = dict(names, a=a)
            yield a, (None if threshold_exprs is None else list(
                dict.fromkeys([_eval_expr(e, tnames)
                               for e in threshold_exprs])))

    return ((mv, centers(mv)) for mv in means)


# ---------------------------------------------------------------------------
# computation dispatch


def _prec_from(args) -> PrecisionSpec:
    # without --rel-tol each mode keeps its own PrecisionSpec default
    tol = {} if args.rel_tol is None else {"rel_tol": args.rel_tol}
    try:
        if args.precision_bits is not None:
            return PrecisionSpec.extended(args.precision_bits, **tol)
        return PrecisionSpec.native(**tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _oracle_eps(prec: PrecisionSpec) -> float:
    return max(prec.rel_tol * 1e-6, 1e-280)


# b for E (X - a)^r itself: sign(X - b) = +1 on the support
_CENTRAL = -math.inf


def _rows(method: str, mv: float, a, b, orders: range, prec: PrecisionSpec,
          tables: dict) -> list:
    """Each order of ``orders`` as (value, condition, certified_error) or
    as its precondition message, for E |X - a|^r (b None), E (X - a)^r
    sign(X - b), or E (X - a)^r (b = _CENTRAL).  ``tables`` holds one
    mean's tables at ``prec`` by (a, floor(b)), each built at orders[-1]
    once: entry r is the same at any order >= r, a signed table reads b
    only as floor(b), and at b < 0 (key -1) it is the central table.  A
    shifted or series ValueError, not _TOO_LARGE, is a precondition
    message."""
    top = orders[-1]
    done: dict = {}  # per threshold, its table or identity; katti's entries

    def table(a, b):
        key = (a, -1 if b < 0 else math.floor(b))
        if key not in tables:
            tables[key] = (central_moment_table(mv, a, top, prec) if b < 0
                           else signed_moment_table(mv, a, b, top, prec))
        return tables[key]

    def entry(r, t):
        if method == "recurrence":
            if t not in done:
                tbl = table(a, t)
                # condition_at(r) of every r in one pass
                done[t] = tbl.values, list(accumulate(tbl.condition, max))
            v = done[t][0][r]  # E |X - a|^r: clamp tiny negative artifacts
            return v if b is not None or v > 0 else 0.0, done[t][1][r], None
        if method == "shifted":
            if r < 1:
                return "the center-shift identity needs --order >= 1"
            if b is not None and _CENTRAL < b < 0:
                return "the signed center-shift identity requires b >= 0"
            if t not in done:  # the tables about a - 1, t - 1 and a, t
                done[t] = shift_identity(table(_shift_down(a, prec), t - 1),
                                         table(a, t))
            v = done[t][r - 1]
            return v if b is not None or v > 0 else 0.0, None, None
        if method == "closed":
            if b is not None:
                return ("closed forms cover absolute moments only "
                        "(drop --threshold)")
            if a != mv:
                return ("closed forms are stated about the mean; --center "
                        "must equal --mean")
            if r not in _CLOSED_FORMS:
                return "closed forms exist for orders 1, 3 and 5"
            return _CLOSED_FORMS[r](mv, prec), None, None
        if method == "katti":
            if b is not None:
                return ("the series route covers absolute moments only "
                        "(drop --threshold)")
            if r % 2 == 0:
                return f"order must be an odd positive integer, got {r!r}"
            _check_center(a)  # a ValueError, before any table is built
            if not done:
                done.update(katti_abs_moment_table(
                    mv, a, top, prec, table(a, _CENTRAL).values))
            return (*done[r], None)
        w = (oracle_mod.WeightSpec.abs_power(r, a) if b is None
             else oracle_mod.WeightSpec.signed_power(r, a, b))
        res = oracle_mod.expectation(mv, w, _oracle_eps(prec))
        return res.value, None, res.certified_error

    rows = []
    for r in orders:
        try:
            # E |X - a|^r is the signed moment at b = a for odd r and the
            # central moment for even r
            rows.append(entry(r, b if b is not None
                              else a if r % 2 else _CENTRAL))
        except _TOO_LARGE:
            raise
        except ValueError as exc:
            if method not in ("shifted", "katti"):
                raise
            rows.append(str(exc))
    return rows


def _records(method: str, mv: float, a, b, orders: range,
             prec: PrecisionSpec, tables: dict) -> list:
    """Each :func:`_rows` entry as a CSV_HEADER record timed by that one
    call; a value past the double range is a usage error."""
    t0 = time.perf_counter_ns()
    rows = _rows(method, mv, a, b, orders, prec, tables)
    elapsed = time.perf_counter_ns() - t0
    out = []
    for r, row in zip(orders, rows):
        if not isinstance(row, str):
            value = float(row[0])
            if math.isinf(value):
                raise UsageError(f"the {method} value at m = {mv!r}, "
                                 f"a = {a!r}, r = {r} overflows binary64")
            row = (mv, a, b, r, method, value, *row[1:], elapsed)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_moment(args, out, err) -> int:
    prec = _prec_from(args)
    mv = _mean_or_usage(args.mean)
    order = _order_or_usage(args.order, "--order")
    _finite_or_usage(args.center, "--center")
    _finite_or_usage(args.threshold, "--threshold")
    rec, = _records(args.method, mv, args.center, args.threshold,
                    range(order, order + 1), prec, {})
    if isinstance(rec, str):
        raise PreconditionError(rec)
    _emit([rec], CSV_HEADER, args.format, out, _record_line)
    return EXIT_OK


def _cmd_table(args, out, err) -> int:
    prec = _prec_from(args)
    grid = _grid(args, args.thresholds)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in _MOMENT_METHODS:
            raise UsageError(f"unknown method {m!r}")
    orders = _orders(args)
    records = []
    for mv, centers in grid:
        tables: dict = {}  # this mean's tables
        for a, thresholds in centers:
            for b in thresholds or [None]:
                columns = [_records(method, mv, a, b, orders, prec, tables)
                           for method in methods]
                # by order, then method; a refused order is skipped
                records += [rec for recs in zip(*columns) for rec in recs
                            if not isinstance(rec, str)]
    _emit(records, CSV_HEADER, args.format, out, _record_line)
    return EXIT_OK


def _cmd_poly(args, out, err) -> int:
    polys = moment_polynomials(_orders(args)[-1])
    _emit([(p.order, list(p.coeffs)) for p in polys], ["order", "coeffs"],
          args.format, out, lambda row: f"mu{row[0]}: {row[1]}")
    return EXIT_OK


def _cmd_bench(args, out, err) -> int:
    prec = _prec_from(args)
    mv = _mean_or_usage(args.mean)
    orders = _orders(args)
    if args.repeats < 1:
        raise UsageError("--repeats must be positive")
    results = []
    for method in ("recurrence", "oracle"):
        # the row's elapsed_ns, each repeat from an empty memo
        times = [_records(method, mv, mv, None, orders, prec, {})[0][-1]
                 for _ in range(args.repeats)]
        results.append((method, int(median(times))))

    _emit(results, ["method", "elapsed_ns"], args.format, out,
          lambda row: f"{row[0]}: {row[1]} ns (median of {args.repeats})")
    if args.format == "text":
        ratio = results[1][1] / max(1, results[0][1])
        out.write(f"oracle/recurrence ratio: {ratio:.1f}\n")
    return EXIT_OK


def _cmd_verify(args, out, err) -> int:
    prec = _prec_from(args)
    tol = args.tol
    if not tol > 0:
        raise UsageError("--tol must be positive")
    if not (math.isfinite(tol) and tol * 1e-6 >= MIN_CERTIFIABLE_EPS):
        # the oracle certifies its entries to eps <= tol * 1e-6
        raise UsageError(f"--tol must be finite with tol * 1e-6 >= "
                         f"{MIN_CERTIFIABLE_EPS:g}, got {tol!r}")
    grid = _grid(args, args.thresholds)
    orders = _orders(args)
    eps = min(_oracle_eps(prec), tol * 1e-6)

    worst: dict = {}
    failures = []
    flagged = 0
    gated_rows = 0

    # the series route's error is its series' stopping rule, not
    # cancellation (its condition estimate is at most 2), so its rows are
    # gated, at either precision, whenever that rule stops well inside tol
    katti_gated = prec.rel_tol <= tol / 100

    for mv, centers in grid:
        tables: dict = {}  # this mean's tables
        about = []  # (a, thresholds, routes by b)
        for a, thresholds in centers:
            # per b (None: E (X - a)^r): (method, b for _rows, rows)
            routes = {b: [(method, t,
                           _rows(method, mv, a, t, orders, prec, tables))
                          for method in ("recurrence", "shifted")]
                      for b, t in [(None, _CENTRAL),
                                   *((b, b) for b in thresholds)]}
            # the mean ceilings of the pass, then (a >= 0) of the series
            # route, are checked at each center before any O(m) sum
            _capped_mean(mv, MAX_ORACLE_MEAN, oracle_mod._ORACLE_ROUTE)
            # closed forms and the series route: E |X - a|^r
            routes[None] += [
                (method, None, _rows(method, mv, a, None, orders, prec, tables))
                for method in ("closed", "katti")]
            about.append((a, thresholds, routes))
        # one certified pass, and one block of row checks, per mean; every
        # oracle entry is an exact total (n, x, certified error)
        _, totals = oracle_mod._center_totals(
            mv, [(a, thresholds) for a, thresholds, _ in about], orders[-1],
            eps)
        rows = []  # (method, key, route entry, oracle entry)
        for (a, _, routes), (_, power, absolute, signed) in zip(about, totals):
            expected = {None: absolute, _CENTRAL: power, **signed}
            # an order a route refuses is skipped
            rows += [(method, (mv, a, b, r), entries[r], expected[t][r])
                     for b, block in routes.items() for r in orders
                     for method, t, entries in block
                     if not isinstance(entries[r], str)]
        checks = oracle_mod._row_checks(
            ((candidate, (n, x), e)
             for _, _, (candidate, _, _), (n, x, e) in rows),
            tol)
        for (method, key, (_, cond, _), _), (passed, rel_err) in zip(
                rows, checks):
            prev = worst.get(method)
            if prev is None or rel_err > prev[0]:
                worst[method] = (rel_err, key)
            row_flagged = (method == "recurrence"
                           and cond > CONDITION_FLAG_THRESHOLD)
            if row_flagged:
                flagged += 1
            if (method != "katti" or katti_gated) and not row_flagged:
                gated_rows += 1
                if not passed:
                    failures.append((key, method, rel_err))

    out.write(f"verify: tol={_f17(tol)} precision={prec.mode} "
              f"gated_rows={gated_rows} flagged_rows={flagged}\n")
    for method in sorted(worst):
        rel, key = worst[method]
        out.write(f"  {method:<10s} worst_rel_err={rel:.3e} "
                  f"at m={_f17(key[0])} a={_f17(key[1])} "
                  f"b={_f17(key[2]) or '-'} r={key[3]}\n")
    if failures:
        for key, method, rel in failures:
            err.write(f"FAIL method={method} m={_f17(key[0])} a={_f17(key[1])} "
                      f"b={_f17(key[2]) or '-'} r={key[3]} rel_err={rel:.3e}\n")
        out.write(f"result: FAIL ({len(failures)} of {gated_rows} gated rows)\n")
        return EXIT_VERIFY_FAIL
    out.write("result: PASS\n")
    return EXIT_OK


def _orders(args) -> range:
    """0..--max-order (a usage error outside 0..MAX_ORDER)."""
    return range(_order_or_usage(args.max_order, "--max-order") + 1)


def _order_or_usage(r: int, flag: str) -> int:
    """``r``, or a usage error naming ``flag`` outside 0..MAX_ORDER:
    checked before any routing, where ``_rows`` would read a refusal as a
    precondition message."""
    if not 0 <= r <= MAX_ORDER:
        raise UsageError(f"{flag} must lie in 0..{MAX_ORDER}, got {r}")
    return r


def _mean_or_usage(x) -> float:
    try:
        return as_mean(x)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _finite_or_usage(x: Optional[float], flag: str) -> None:
    if x is not None and not math.isfinite(x):
        raise UsageError(f"{flag} must be finite, got {x!r}")


# ---------------------------------------------------------------------------
# parser


def _add_common(p) -> None:
    p.add_argument("--precision-bits", type=int, default=None, metavar="BITS",
                   help="use extended precision with this mantissa width "
                        "(>= 64); default is native doubles")
    p.add_argument("--rel-tol", type=float, default=None, metavar="TOL",
                   help="relative tolerance for series loops (default 1e-12 "
                        "for native doubles, 1e-20 with --precision-bits)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="output format (default text)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  argparse reads the terminal
    width (``COLUMNS``) when it formats a message, not here."""
    parser = argparse.ArgumentParser(
        prog="poisson-moments",
        description="Central, signed and absolute moments of the Poisson "
                    "distribution about arbitrary points, with cross-checked "
                    "methods and a certified brute-force oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="compute one moment value")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="sign threshold b: compute E (X-a)^r sign(X-b) "
                        "instead of E |X-a|^r")
    p.add_argument("--method", choices=_MOMENT_METHODS, default="recurrence")
    _add_common(p)
    p.set_defaults(run=_cmd_moment)

    p = sub.add_parser("table", help="emit a grid of moment values")
    p.add_argument("--mean-grid", default="1,2,5",
                   help="comma list or start:stop:step (default 1,2,5)")
    p.add_argument("--centers", default="m",
                   help="comma list of expressions in m and fl=floor(m) "
                        "(default m)")
    p.add_argument("--thresholds", default=None,
                   help="comma list of expressions in m, fl, a; if given, "
                        "signed moments are emitted")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--methods", default="recurrence",
                   help="comma list of methods (default recurrence); "
                        "inapplicable rows are skipped")
    _add_common(p)
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("verify",
                       help="cross-verify all applicable methods against the "
                            "oracle over a grid")
    p.add_argument("--mean-grid", default=DEFAULT_MEAN_GRID)
    p.add_argument("--centers", default=DEFAULT_CENTER_GRID)
    p.add_argument("--thresholds", default=DEFAULT_THRESHOLD_GRID)
    p.add_argument("--max-order", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="pass when |candidate - oracle| <= tol (|oracle|+1)")
    _add_common(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bench",
                       help="median-of-N timings of the recurrence path vs "
                            "the oracle path")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--max-order", type=int, default=10)
    p.add_argument("--repeats", type=int, default=5)
    _add_common(p)
    p.set_defaults(run=_cmd_bench)

    p = sub.add_parser("poly", help="print exact moment-polynomial coefficients")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(run=_cmd_poly)

    for p in sub.choices.values():
        # a token that starts with '-' and names no option ("-1e-3",
        # "-m,0") is a value, as argparse already reads "-1"
        p._negative_number_matcher = re.compile("-")
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse writes usage errors to sys.stderr and --help to sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, out, err)
    except (UsageError, *_TOO_LARGE) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PreconditionError as exc:
        err.write(f"method precondition violated: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
