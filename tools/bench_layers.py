"""Median time of each layer's work on fixed cases, for two source trees.

One case table, ``CASES``, covers the layers:

* ``primitives``: ``cdf``, extended ``log_pmf`` and ``threshold_pmf_factor``;
* ``tables``: the table recurrence, native and at 256 bits (a signed
  table also at b = 0, far below a large mean, and a central one at the
  far centers a = 5e-324 and a = 1e300), the native table at a near-root
  center, whose flagged orders are rebuilt at 256 bits, and a 64-bit
  table at the order ceiling, ``core.MAX_ORDER``;
* ``hypergeom``: the Kummer route at a = m and 256 bits unless the case
  says otherwise: the value row, also natively, ``g_table``'s derivative
  recursion alone, ``katti_abs_moment``, and every odd order up to r by
  ``katti_abs_moment_table`` next to a ``katti_abs_moment`` call per order;
  and native ``hyp1f1`` at z = -m, Kummer's transformation;
* ``oracle``: ``expectation`` and ``expectation_table``, eps = 1e-24 unless
  the case says otherwise, the tables of ``verify``'s four default
  centers of one mean, and ``verify_rows`` on the rows of one ``verify``
  center;
* ``weighted``: the weighted recurrence at a = m and 256 bits, with the
  weight sign(j - m): every order up to r by ``b_expectation_table`` next
  to a ``b_expectation`` call per order, the table natively, and the
  table at 64 bits at the weighted pass's own order ceiling,
  ``recurrences.MAX_WEIGHTED_ORDER``;
* ``polynomials``: the exact moment polynomials of every order up to the
  order ceiling;
* ``cli``: ``verify`` requests shaped like the benchmark's ``verify_sweep``
  and a ``table`` grid of 50 means, three centers and orders to 30, each
  one in-process ``cli.main`` call, and the wall time of a whole
  ``python -m poisson_moments`` process.

Run it as

    python tools/bench_layers.py --parent-src OLD/src --parent-label REV \\
        --out BENCH_N.json [--layer NAME ...]

A unit is one case at one mean and order: one output row.  In each of
ROUNDS rounds, every unit runs once per tree, the two trees back to back,
each in a fresh interpreter, ``bench_layers.py --measure SRC --unit K``,
which imports the package from SRC and prints one JSON dict.  Which tree
goes first alternates from one unit to the next and from one round to the
next, so that the drift of a shared machine's speed, which shows within
seconds, falls on both trees alike, and no unit's work runs in the same
process as another's.  A case's work is a list of calls, repeated up to
REPEATS times within BUDGET_S seconds (``time_work``, which also says when
a case is ``capped``); no call is left untimed as a warm-up, since the
median drops a cold first repetition.  Each repetition starts with the
memos of ``core`` and ``recurrences`` empty, whatever the tree names
them, so that a repeated call is timed as a caller meets it first, not as
a hit left by the repetition before.  A row's ``speedup`` is the ratio of
the two trees' medians over rounds of their per-round medians;
``paired_speedup`` is the median over rounds of the per-round ratio
parent / change, and ``paired_lo`` and ``paired_hi`` are the smallest and
the largest per-round ratio.  A speed claim quotes ``paired_speedup`` with
its range: a round runs the two trees back to back, so the drift of the
machine between rounds cancels in their ratio.  A case whose function a
tree lacks has a null median on that tree, and null ratios.
Standard library only, apart from the package under test and its mpmath
dependency.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter_ns

import mpmath

MEANS = (2.0, 50.0, 1e3, 1e5)
ORDER = 10
HYP_ORDERS = (3, 15)
# Centers near a root of E (X - a)^7 at m = 0.5 and of E (X - a)^3 at
# m = 2: the native table's condition estimate passes the flag there and
# the table is rebuilt from that order on.
NEAR_ROOTS = {0.5: 1.3238626510460685, 2.0: 2.3274800020733264}
EPS = 1e-24
# The package's order ceilings, ``core.MAX_ORDER`` and
# ``recurrences.MAX_WEIGHTED_ORDER``: the cases at the ceiling run there on
# both trees.
MAX_ORDER = 420
MAX_WEIGHTED_ORDER = 240
ROUNDS = 5
REPEATS = 21
BUDGET_S = 5.0
SIDES = ("parent", "change")
HERE = os.path.dirname(os.path.abspath(__file__))


def _ext(pm, bits: int = 256):
    return pm.PrecisionSpec.extended(bits)


def _value_row(pm, m, r, native=False) -> list:
    """The value row of ``g_table(m, m, r)`` at 256 bits, or natively: one
    ``hypergeom._value_row`` call (a few series and the three-term
    recurrence)."""
    prec = pm.NATIVE if native else _ext(pm)
    return [partial(pm.hypergeom._value_row, math.floor(m), m, r, prec)]


def _g_recursion(pm, m, r) -> list:
    """One ``g_table(m, m, r)`` at 256 bits whose value row is served from
    values computed beforehand, ``hypergeom._value_row`` stubbed: the
    derivative recursion and its conversions alone."""
    hg, g_table, ext = pm.hypergeom, pm.g_table, _ext(pm)
    real = hg._value_row
    row = real(math.floor(m), m, r, ext)

    def run():
        hg._value_row = lambda fl, mv, ri, prec: row
        try:
            g_table(m, m, r, ext)
        finally:
            hg._value_row = real
    return [run]


def _per_entry(pm, m, r) -> list:
    """The oracle rows ``verify`` needs about the center m, one
    ``expectation`` call each: power, absolute, and signed at b in
    {m, 0, m/2}, for every order up to r."""
    w = pm.WeightSpec
    weights = [x for k in range(r + 1) for x in (
        w.power(k, m), w.abs_power(k, m),
        *(w.signed_power(k, m, b) for b in (m, 0.0, m / 2)))]
    return [partial(pm.expectation, m, x, EPS) for x in weights]


def _verify_centers(pm, m, r) -> list:
    """The oracle entries ``verify`` checks about its four default centers
    of one mean (0, m, fl + 0.3 and m + 1, thresholds a, 0 and m/2), one
    public ``expectation_table`` call per center at eps = 1e-18, as
    native ``verify`` asks for them."""
    return [partial(pm.expectation_table, m, a, r, 1e-18, (a, 0.0, m / 2))
            for a in dict.fromkeys((0.0, m, math.floor(m) + 0.3, m + 1.0))]


def _verify_rows(pm, m, r) -> list:
    """One ``verify_rows`` call on the rows ``verify`` checks about the
    center m, built here and so untimed: the central and signed (b in {m,
    0, m/2}) table entries and the odd Kummer-route entries up to order r,
    native and at 256 bits, each against its ``expectation_table`` entry."""
    thresholds = (m, 0.0, m / 2)
    oracle = pm.expectation_table(m, m, r, EPS, thresholds)
    rows = []
    for prec in (pm.NATIVE, _ext(pm)):
        rows += zip(pm.central_moment_table(m, m, r, prec).values,
                    oracle.power)
        for b in thresholds:
            rows += zip(pm.signed_moment_table(m, m, b, r, prec).values,
                        oracle.signed[b])
        katti = pm.katti_abs_moment_table(m, m, r, prec)
        rows += [(katti[k][0], oracle.absolute[k]) for k in katti]
    return [partial(pm.verify_rows, rows, 1e-9)]


def _sign_weight(pm, m):
    """sign(j - m) as a declared-growth weight."""
    return pm.DiscreteFunction(lambda j: float(pm.sign(j - m)), degree=0,
                               coeff=1.0)


def _in_process(pm, *argv):
    """One ``cli.main`` call in this interpreter, its output discarded; an
    exit code other than 0 is an error."""
    main = importlib.import_module(pm.__name__ + ".cli").main

    def run():
        code = main(list(argv), out=io.StringIO(), err=io.StringIO())
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return run


def _process(pm, *argv):
    src = os.path.dirname(os.path.dirname(pm.__file__))
    return partial(subprocess.run,
                   [sys.executable, "-m", "poisson_moments", *argv],
                   env=dict(os.environ, PYTHONPATH=src),
                   check=True, capture_output=True)


# (layer, case, means (None: MEANS), orders, work): work(pm, m, r) returns
# the list of zero-argument calls that make up one unit of the case's work,
# and looks up every function it names before it returns.
CASES = [
    ("primitives", "cdf b=m", None, (None,),
     lambda pm, m, r: [partial(pm.cdf, m, m)]),
    ("primitives", "cdf b=m+3sqrt(m)", None, (None,),
     lambda pm, m, r: [partial(pm.cdf, m + 3 * math.sqrt(m), m)]),
    ("primitives", "cdf b=m-3sqrt(m)", None, (None,),
     lambda pm, m, r: [partial(pm.cdf, m - 3 * math.sqrt(m), m)]),
    ("primitives", "cdf b=1e7", (1e3,), (None,),
     lambda pm, m, r: [partial(pm.cdf, 1e7, m)]),
    ("primitives", "log_pmf_extended k=m, 128 bits", None, (None,),
     lambda pm, m, r: [partial(pm.log_pmf, int(m), m, _ext(pm, 128))]),
    ("primitives", "log_pmf_extended k=1e6, 128 bits", (1e4,), (None,),
     lambda pm, m, r: [partial(pm.log_pmf, 10 ** 6, m, _ext(pm, 128))]),
    ("primitives", "threshold_pmf_factor k=floor(m)", None, (None,),
     lambda pm, m, r: [partial(pm.recurrences.threshold_pmf_factor,
                               math.floor(m), m)]),
    ("primitives", "threshold_pmf_factor k=floor(m), 256 bits", None, (None,),
     lambda pm, m, r: [partial(pm.recurrences.threshold_pmf_factor,
                               math.floor(m), m, _ext(pm))]),
    ("tables", "central_moment_table a=m", None, (ORDER,),
     lambda pm, m, r: [partial(pm.central_moment_table, m, m, r)]),
    ("tables", "signed_moment_table a=b=m", None, (ORDER,),
     lambda pm, m, r: [partial(pm.signed_moment_table, m, m, m, r)]),
    ("tables", "signed_moment_table a=b=m, 256 bits", None, (ORDER, 30),
     lambda pm, m, r: [partial(pm.signed_moment_table, m, m, m, r, _ext(pm))]),
    ("tables", "central_moment_table a=m, 256 bits", None, (ORDER, 30),
     lambda pm, m, r: [partial(pm.central_moment_table, m, m, r, _ext(pm))]),
    ("tables", "signed_moment_table a=m b=0, 256 bits", (1e3, 1e5), (ORDER,),
     lambda pm, m, r: [partial(pm.signed_moment_table, m, m, 0.0, r,
                               _ext(pm))]),
    ("tables", "central_moment_table a=5e-324, 256 bits", (2.0,), (30,),
     lambda pm, m, r: [partial(pm.central_moment_table, m, 5e-324, r,
                               _ext(pm))]),
    # a far center: the cost should not grow with |a|
    ("tables", "central_moment_table a=1e300, 256 bits", (2.0,), (30,),
     lambda pm, m, r: [partial(pm.central_moment_table, m, 1e300, r,
                               _ext(pm))]),
    # the order ceiling, where forming the binomials dominated
    ("tables", "central_moment_table a=0, 64 bits", (2.0,), (MAX_ORDER,),
     lambda pm, m, r: [partial(pm.central_moment_table, m, 0.0, r,
                               _ext(pm, 64))]),
    ("tables", "central_moment_table near root, native rebuild",
     tuple(NEAR_ROOTS), (14,),
     lambda pm, m, r: [partial(pm.central_moment_table, m, NEAR_ROOTS[m], r)]),
    ("hypergeom", "katti native", None, HYP_ORDERS,
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, m, r)]),
    # every native top entry overflows: the derivative rows at 256 bits
    ("hypergeom", "katti native a=0.5", (1e3,), (15,),
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, 0.5, r)]),
    # the pmf factor underflows binary64
    ("hypergeom", "katti native a=400", (2.0,), (3,),
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, 400.0, r)]),
    ("hypergeom", "hyp1f1 native (1, 2, -m)", None, (None,),
     lambda pm, m, r: [partial(pm.hyp1f1, pm.Hyp1F1Params(1.0, 2.0, -m))]),
    ("hypergeom", "value_row", None, HYP_ORDERS, _value_row),
    ("hypergeom", "value_row native", (2.0, 50.0), HYP_ORDERS,
     partial(_value_row, native=True)),
    ("hypergeom", "g_table recursion", None, HYP_ORDERS, _g_recursion),
    ("hypergeom", "katti", None, HYP_ORDERS,
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, m, r, _ext(pm))]),
    ("hypergeom", "katti a=0", None, (3,),
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, 0.0, r, _ext(pm))]),
    ("hypergeom", "katti a=0", (1e4,), (15,),
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, 0.0, r, _ext(pm))]),
    ("hypergeom", "katti per order 1..r native", (2.0, 50.0, 1e3), (9,),
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, m, k)
                       for k in range(1, r + 1, 2)]),
    ("hypergeom", "katti_abs_moment_table native", (2.0, 50.0, 1e3), (9,),
     lambda pm, m, r: [partial(pm.katti_abs_moment_table, m, m, r)]),
    ("hypergeom", "katti per order 1..r", (2.0, 50.0, 1e3), (9,),
     lambda pm, m, r: [partial(pm.katti_abs_moment, m, m, k, _ext(pm))
                       for k in range(1, r + 1, 2)]),
    ("hypergeom", "katti_abs_moment_table", (2.0, 50.0, 1e3), (9,),
     lambda pm, m, r: [partial(pm.katti_abs_moment_table, m, m, r, _ext(pm))]),
    ("oracle", "per_entry", None, (ORDER,), _per_entry),
    ("oracle", "table", None, (ORDER,),
     lambda pm, m, r: [partial(pm.expectation_table, m, m, r, EPS,
                               (m, 0.0, m / 2))]),
    ("oracle", "verify centers, eps=1e-18", (2.0, 50.0, 1e3), (ORDER,),
     _verify_centers),
    ("oracle", "single", (2.0, 50.0), (3, 30),
     lambda pm, m, r: [partial(pm.expectation, m,
                               pm.WeightSpec.abs_power(r, m), EPS)]),
    ("oracle", "single eps=1e-12", None, (3,),
     lambda pm, m, r: [partial(pm.expectation, m,
                               pm.WeightSpec.abs_power(r, m), 1e-12)]),
    ("oracle", "verify_rows", (2.0, 50.0), (8,), _verify_rows),
    ("weighted", "b_expectation per order 0..r", (2.0, 50.0, 1e3), (ORDER,),
     lambda pm, m, r: [partial(pm.b_expectation, m, m, k, _sign_weight(pm, m),
                               _ext(pm)) for k in range(r + 1)]),
    ("weighted", "b_expectation_table", (2.0, 50.0, 1e3), (ORDER,),
     lambda pm, m, r: [partial(pm.b_expectation_table, m, m, r,
                               _sign_weight(pm, m), _ext(pm))]),
    ("weighted", "b_expectation_table native", (2.0, 50.0, 1e3), (ORDER,),
     lambda pm, m, r: [partial(pm.b_expectation_table, m, m, r,
                               _sign_weight(pm, m))]),
    ("weighted", "b_expectation_table native", (2.0,), (200,),
     lambda pm, m, r: [partial(pm.b_expectation_table, m, m, r,
                               _sign_weight(pm, m))]),
    ("weighted", "b_expectation_table 64 bits", (2.0,), (MAX_WEIGHTED_ORDER,),
     lambda pm, m, r: [partial(pm.b_expectation_table, m, m, r,
                               _sign_weight(pm, m), _ext(pm, 64))]),
    ("polynomials", "moment_polynomials", (None,), (MAX_ORDER,),
     lambda pm, m, r: [partial(pm.moment_polynomials, r)]),
    ("cli", "verify", (2.0, 50.0), (8,),
     lambda pm, m, r: [_in_process(pm, "verify", "--mean-grid", f"{m:g}",
                                   "--max-order", str(r))]),
    ("cli", "verify 256 bits tol=1e-18", (2.0, 50.0), (8,),
     lambda pm, m, r: [_in_process(pm, "verify", "--mean-grid", f"{m:g}",
                                   "--max-order", str(r), "--precision-bits",
                                   "256", "--tol", "1e-18")]),
    ("cli", "table grid 1:50:1, centers m,0,fl+0.3", (None,), (30,),
     lambda pm, m, r: [_in_process(pm, "table", "--mean-grid", "1:50:1",
                                   "--centers", "m,0,fl+0.3",
                                   "--max-order", str(r))]),
    ("cli", "verify process, default grid", (None,), (None,),
     lambda pm, m, r: [_process(pm, "verify")]),
    ("cli", "moment process", (2.0,), (3,),
     lambda pm, m, r: [_process(pm, "moment", "--mean", f"{m:g}",
                                "--center", f"{m:g}", "--order", str(r))]),
]
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in CASES))


def _clear_memos(pm) -> None:
    """Empty every module-level ``functools.lru_cache`` of the tree's
    ``core`` and ``recurrences``, whatever its name, so that no repetition
    times a value an earlier one left behind.  The cache of Pascal's rows
    (``core._binomial_rows``) is not an ``lru_cache`` and stays warm: it
    holds no per-mean data, so a caller meets it warm after the first
    table of an order."""
    for module in (pm.core, pm.recurrences):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):  # an lru_cache wrapper
                value.cache_clear()


def time_work(calls: list, repeats: int, budget_s: float, reset) -> tuple:
    """(median ns of the whole work, capped).

    The work is the list of zero-argument ``calls``, made in order.  It is
    repeated up to ``repeats`` times, each repetition after an untimed
    ``reset()``, and stops once it has used ``budget_s`` seconds.  Work
    that does not fit in the budget even once is timed on the calls that
    fit, scaled to the whole work by the share of calls made, and is
    capped.
    """
    budget = budget_s * 1e9
    times = []
    spent = 0
    while len(times) < repeats and spent < budget:
        reset()
        total = 0
        for done, call in enumerate(calls, 1):
            t0 = perf_counter_ns()
            call()
            total += perf_counter_ns() - t0
            if spent + total >= budget and done < len(calls):
                if times:
                    return statistics.median(times), False
                return total * len(calls) / done, True
        times.append(total)
        spent += total
    return statistics.median(times), False


def units(layers) -> list:
    """(layer, case, m, r, work) for every output row of ``layers``, in
    ``CASES`` order."""
    return [(layer, case, m, r, work)
            for layer, case, means, orders, work in CASES if layer in layers
            for m in (MEANS if means is None else means) for r in orders]


def measure(src: str, unit: tuple) -> dict:
    """Time one unit of ``units`` with the package imported from ``src``."""
    src = os.path.abspath(src)
    if src not in sys.path:
        sys.path.insert(0, src)
    import poisson_moments as pm

    layer, case, m, r, work = unit
    key = {"layer": layer, "case": case, "m": m, "r": r}
    try:
        calls = work(pm, m, r)
    except AttributeError:  # the tree lacks the function
        return dict(key, calls_per_work=None, median_us=None, capped=False)
    ns, capped = time_work(calls, REPEATS, BUDGET_S,
                           partial(_clear_memos, pm))
    return dict(key, calls_per_work=len(calls), median_us=ns / 1e3,
                capped=capped)


def _child(src: str, k: int) -> dict:
    """Unit ``k`` of ``units(LAYERS)`` timed with the package imported from
    ``src``, in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--measure", src, "--unit", str(k)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _row(parent: list, change: list) -> dict:
    """One output row from a unit's per-round dicts on each tree."""
    row = {k: change[0][k] for k in ("layer", "case", "m", "r")}
    row["calls_per_work"] = (change[0]["calls_per_work"]
                             or parent[0]["calls_per_work"])
    medians = {}
    for side, rounds in (("parent", parent), ("change", change)):
        us = [c["median_us"] for c in rounds]
        medians[side] = None if None in us else statistics.median(us)
        row[f"{side}_median_us"] = (None if medians[side] is None
                                    else round(medians[side], 1))
        row[f"{side}_capped"] = any(c["capped"] for c in rounds)
    row["speedup"] = (None if None in medians.values()
                      else round(medians["parent"] / medians["change"], 2))
    ratios = (None if None in medians.values() else
              [p["median_us"] / c["median_us"] for p, c in zip(parent, change)])
    for key, pick in (("paired_speedup", statistics.median),
                      ("paired_lo", min), ("paired_hi", max)):
        row[key] = None if ratios is None else round(pick(ratios), 2)
    return row


def _text(row: dict, side: str) -> str:
    us = row[f"{side}_median_us"]
    return (f" {side} {'-' if us is None else f'{us:.1f} us':>14}"
            f"{' (capped)' if row[f'{side}_capped'] else '':9}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", help="src directory of the parent tree")
    p.add_argument("--parent-label", default="parent")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--layer", action="append", choices=LAYERS,
                   help="a layer to measure (repeatable; default every layer)")
    p.add_argument("--measure", help=argparse.SUPPRESS)
    p.add_argument("--unit", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    layers = args.layer or list(LAYERS)

    if args.measure:
        json.dump(measure(args.measure, units(LAYERS)[args.unit]), sys.stdout)
        return 0
    if not (args.parent_src and args.out):
        p.error("--parent-src and --out are required")

    srcs = {"parent": os.path.abspath(args.parent_src),
            "change": os.path.join(HERE, "..", "src")}
    todo = [k for k, unit in enumerate(units(LAYERS)) if unit[0] in layers]
    runs = {side: {k: [] for k in todo} for side in SIDES}
    for i in range(ROUNDS):
        for j, k in enumerate(todo):
            for side in (SIDES if (i + j) % 2 == 0 else SIDES[::-1]):
                runs[side][k].append(_child(srcs[side], k))
    rows = [_row(runs["parent"][k], runs["change"][k]) for k in todo]
    doc = {
        "what": "median microseconds per unit of work (calls_per_work calls) "
                "of each layer's cases; a speed claim quotes paired_speedup, "
                "the median over rounds of the per-round parent/change "
                "ratio, with its range paired_lo..paired_hi",
        "parent": args.parent_label,
        "change": "this checkout",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "budget_s_per_case": BUDGET_S,
        "environment": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "cases": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for r in rows:
        m = "-" if r["m"] is None else f"{r['m']:g}"
        print(f"{r['layer']:10} {r['case']:36} m={m:<6} r={r['r'] or '-':<3}"
              f"{_text(r, 'parent')}{_text(r, 'change')} x{r['speedup'] or '-'}"
              f" paired x{r['paired_speedup'] or '-'}"
              f" [{r['paired_lo'] or '-'}, {r['paired_hi'] or '-'}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
