"""Median time of the Kummer-series route, for two source trees.

Cases, each at a = m for m in {2, 50, 1e3, 1e5} and r in {3, 15}:

* ``value_row``: the r + 1 ``hyp1f1`` calls of a ``g_table`` value row,
  1F1(beta + 1, beta + floor(m) + 2, m) for beta = 0..r, at 256 bits;
* ``g_table recursion``: one ``g_table(m, m, r)`` call at 256 bits whose
  value row ``hyp1f1`` answers from values computed beforehand, so that
  the time is the derivative recursion and its conversions alone;
* ``katti``: one ``katti_abs_moment(m, m, r)`` call at 256 bits;
* ``katti native``: the same call in doubles, which should not move.

Run it as

    python tools/bench_hypergeom.py --parent-src OLD/src --parent-label REV \\
        --out BENCH_4.json

Each tree is measured in fresh interpreters, ROUNDS of them, alternating
which tree goes first (``_benchlib``).  In a round, a case repeats its
calls up to REPEATS times and stops once they have used BUDGET_S seconds
(``_benchlib.time_work``, which also says how a case that does not fit is
``capped``).  A case's figure is the median over rounds of its per-round
median.  Standard library only, apart from the package under test and its
mpmath dependency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from _benchlib import (alternating_rounds, combine, environment, run_child,
                       time_work, write_json)

MEANS = (2.0, 50.0, 1e3, 1e5)
ORDERS = (3, 15)
BITS = 256
ROUNDS = 5
REPEATS = 21
BUDGET_S = 5.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _cases(pm):
    """(case, m, r, list of zero-argument calls making up the work).

    The native cases come first, so that no tree's extended work (which
    differs between the trees by a factor of 10 or more) runs before them
    in the same interpreter.
    """
    import poisson_moments.hypergeom as hg

    ext = pm.PrecisionSpec.extended(BITS)
    grid = [(m, r) for m in MEANS for r in ORDERS]
    for m, r in grid:
        yield ("katti native", m, r,
               [lambda m=m, r=r: pm.katti_abs_moment(m, m, r)])
    for m, r in grid:
        fl = math.floor(m)
        params = [pm.Hyp1F1Params(beta + 1, beta + fl + 2, m)
                  for beta in range(r + 1)]
        yield ("value_row", m, r,
               [lambda p=p: pm.hyp1f1(p, ext) for p in params])
        row = {p: pm.hyp1f1(p, ext) for p in params}
        yield ("g_table recursion", m, r,
               [_with_row(hg, row, lambda m=m, r=r: pm.g_table(m, m, r, ext))])
        yield ("katti", m, r,
               [lambda m=m, r=r: pm.katti_abs_moment(m, m, r, ext)])


def _with_row(hg, row: dict, call):
    """call, with ``hg.hyp1f1`` answering from ``row`` while it runs."""
    def run():
        real = hg.hyp1f1
        hg.hyp1f1 = lambda p, prec: row[p]
        try:
            call()
        finally:
            hg.hyp1f1 = real
    return run


def measure(src: str) -> list:
    """Time every case with the package imported from ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    import poisson_moments as pm

    pm.katti_abs_moment(2.0, 2.0, 3)  # warm-up
    pm.katti_abs_moment(2.0, 2.0, 3, pm.PrecisionSpec.extended(BITS))
    out = []
    for case, m, r, calls in _cases(pm):
        ns, reps, capped = time_work(calls, REPEATS, BUDGET_S)
        out.append({"case": case, "m": m, "r": r, "calls_per_work": len(calls),
                    "median_us": ns / 1e3, "repetitions": reps,
                    "capped": capped})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", help="src directory of the parent tree")
    p.add_argument("--parent-label", default="parent")
    p.add_argument("--out", default="BENCH_4.json")
    p.add_argument("--measure", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.measure:
        json.dump(measure(args.measure), sys.stdout)
        return 0
    if not args.parent_src:
        p.error("--parent-src is required")

    srcs = {"parent": args.parent_src,
            "change": os.path.join(HERE, "..", "src")}
    runs = alternating_rounds(ROUNDS, lambda side: run_child(__file__, srcs[side]))
    parent, change = (combine(runs[side], ("case", "m", "r"))
                      for side in ("parent", "change"))

    rows = []
    for key, new in change.items():
        old = parent[key]
        rows.append({
            "case": new["case"], "m": new["m"], "r": new["r"],
            "calls_per_work": new["calls_per_work"],
            "parent_median_us": round(old["median_us"], 1),
            "parent_capped": old["capped"],
            "change_median_us": round(new["median_us"], 1),
            "change_capped": new["capped"],
            "speedup": round(old["median_us"] / new["median_us"], 2),
        })
    doc = {
        "what": "median microseconds per unit of Kummer-route work at a = m; "
                "value_row, g_table recursion and katti at 256 bits, katti "
                "native in doubles",
        "parent": args.parent_label,
        "change": "this checkout",
        "bits": BITS,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "budget_s_per_case": BUDGET_S,
        "environment": environment(),
        "cases": rows,
    }
    write_json(doc, args.out)
    for r in rows:
        print(f"{r['case']:17} m={r['m']:<7g} r={r['r']:<3} "
              f"parent {r['parent_median_us']:>12.1f} us"
              f"{' (capped)' if r['parent_capped'] else '':10} "
              f"change {r['change_median_us']:>10.1f} us"
              f"{' (capped)' if r['change_capped'] else '':10} "
              f"x{r['speedup']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
