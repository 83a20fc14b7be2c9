"""Median time per call of the lattice primitives, for two source trees.

Times ``cdf`` at b = m, extended ``log_pmf`` at k = m and
``signed_moment_table`` at a = b = m, r = 10, each at m in {2, 50, 1e3, 1e5},
once with the package imported from a parent source tree and once from this
checkout's ``src``, and writes both to one JSON file.  Two target cases,
``cdf`` at b = 1e7 and extended ``log_pmf`` at k = 1e6, run on this
checkout only (a direct sum or an exact factorial takes minutes there):

    python tools/bench_primitives.py --parent-src OLD/src --parent-label REV \\
        --out BENCH_2.json

Each tree is measured in fresh interpreters, ROUNDS of them, alternating
which tree goes first (``_benchlib``); a case's figure is the median over
rounds of its per-round median.  In each round every case makes one
untimed warm-up call, then up to REPEATS timed calls, and stops early once
its timed calls have used BUDGET_S seconds; a case stopped that way is
marked ``capped`` and rests on fewer calls.  A factorial cache, if the
tree has one, is cleared before every timed call, so repeated calls at
one k are timed as the first call at a new k would be.  Standard library
only, apart from the package under test and its mpmath dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter_ns

from _benchlib import (alternating_rounds, combine, environment, run_child,
                       write_json)

MEANS = (2.0, 50.0, 1e3, 1e5)
ORDER = 10
ROUNDS = 3
REPEATS = 15
BUDGET_S = 3.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _cases(pm, targets: bool):
    ext = pm.PrecisionSpec.extended(128)
    for m in MEANS:
        yield "cdf", "b=m", m, lambda m=m: pm.cdf(m, m)
        yield ("log_pmf_extended", "k=m, 128 bits", m,
               lambda m=m: pm.log_pmf(int(m), m, ext))
        yield ("signed_moment_table", f"a=b=m, r={ORDER}", m,
               lambda m=m: pm.signed_moment_table(m, m, m, ORDER))
    if targets:
        yield "cdf", "b=1e7", 1e3, lambda: pm.cdf(1e7, 1e3)
        yield ("log_pmf_extended", "k=1e6, 128 bits", 1e4,
               lambda: pm.log_pmf(10 ** 6, 1e4, ext))


def measure(src: str, targets: bool) -> list:
    """Time every case with the package imported from ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    import poisson_moments as pm
    from poisson_moments import core

    cache = getattr(core, "_ln_factorial", None)
    clear = getattr(cache, "cache_clear", lambda: None)
    out = []
    for layer, case, m, call in _cases(pm, targets):
        clear()
        call()  # warm-up: mpmath constant caches, imports
        times = []
        spent = 0
        while len(times) < REPEATS and spent < BUDGET_S * 1e9:
            clear()
            t0 = perf_counter_ns()
            call()
            dt = perf_counter_ns() - t0
            times.append(dt)
            spent += dt
        out.append({"layer": layer, "case": case, "m": m,
                    "median_us": statistics.median(times) / 1e3,
                    "calls": len(times), "capped": len(times) < REPEATS})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", help="src directory of the parent tree")
    p.add_argument("--parent-label", default="parent")
    p.add_argument("--out", default="BENCH_2.json")
    p.add_argument("--measure", help=argparse.SUPPRESS)
    p.add_argument("--targets", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.measure:
        json.dump(measure(args.measure, args.targets), sys.stdout)
        return 0
    if not args.parent_src:
        p.error("--parent-src is required")

    srcs = {"parent": args.parent_src,
            "change": os.path.join(HERE, "..", "src")}
    # the target cases run on this checkout only
    runs = alternating_rounds(ROUNDS, lambda side: run_child(
        __file__, srcs[side], *(("--targets",) if side == "change" else ())))
    parent, change = (combine(runs[side], ("layer", "case", "m"), count="calls")
                      for side in ("parent", "change"))
    rows = []
    for key, new in change.items():
        row = {"layer": new["layer"], "case": new["case"], "m": new["m"],
               "parent_median_us": None, "parent_calls": 0,
               "parent_capped": False}
        old = parent.get(key)
        if old is not None:
            row.update(parent_median_us=round(old["median_us"], 1),
                       parent_calls=old["calls"], parent_capped=old["capped"])
        row.update(change_median_us=round(new["median_us"], 1),
                   change_calls=new["calls"], change_capped=new["capped"])
        if row["parent_median_us"] is not None:
            row["speedup"] = round(old["median_us"] / new["median_us"], 1)
        rows.append(row)
    doc = {
        "what": "median microseconds per call of the lattice primitives",
        "parent": args.parent_label,
        "change": "this checkout",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "budget_s_per_case": BUDGET_S,
        "environment": environment(),
        "cases": rows,
    }
    write_json(doc, args.out)
    for r in rows:
        parent_us = r["parent_median_us"]
        parent_txt = "not run" if parent_us is None else f"{parent_us:.1f} us"
        print(f"{r['layer']:20} {r['case']:16} m={r['m']:<8g} parent "
              f"{parent_txt:>14}{' (capped)' if r['parent_capped'] else '':10} "
              f"change {r['change_median_us']:>9.1f} us  x{r.get('speedup', '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
