"""Median time of the certified oracle's work, for two source trees.

Cases, each at a = m with eps = 1e-24:

* ``per_entry``: the oracle rows ``verify`` needs about one center,
  r <= 10 with the thresholds b in {m, 0, m/2}: 55 ``expectation`` calls
  (power, absolute and three signed sums per order), at m in
  {2, 50, 1e3, 1e5}, on both trees;
* ``table``: the same 55 entries from one ``expectation_table`` call, on
  this checkout only (the parent tree has no such call);
* ``single``: one ``expectation`` call for E |X - m|^r, r in {3, 30}, at m
  in {2, 50}, on both trees;

plus the wall time of a fresh ``python -m poisson_moments verify`` process
with the default grid.  Run it as

    python tools/bench_oracle.py --parent-src OLD/src --parent-label REV \\
        --out BENCH_3.json

Each tree is measured in fresh interpreters, ROUNDS of them, alternating
which tree goes first (``_benchlib``); a round of a tree also times
VERIFY_RUNS ``verify`` processes.  In a round, a case repeats its calls up
to REPEATS times and stops once they have used BUDGET_S seconds
(``_benchlib.time_work``, which also says how a case that does not fit is
``capped``).  A case's figure is the median over rounds of its per-round
median.  Standard library only, apart from the package under test and its
mpmath dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter_ns

from _benchlib import (alternating_rounds, combine, environment, run_child,
                       time_work, write_json)

MEANS = (2.0, 50.0, 1e3, 1e5)
SINGLE_MEANS = (2.0, 50.0)
SINGLE_ORDERS = (3, 30)
ORDER = 10
EPS = 1e-24
ROUNDS = 3
REPEATS = 5
BUDGET_S = 20.0
VERIFY_RUNS = 5  # per round and tree
HERE = os.path.dirname(os.path.abspath(__file__))


def _cases(pm, with_table: bool):
    """(case, m, list of zero-argument calls making up the work)."""
    for m in MEANS:
        bs = (m, 0.0, m / 2)
        weights = []
        for r in range(ORDER + 1):
            weights += [pm.WeightSpec.power(r, m), pm.WeightSpec.abs_power(r, m)]
            weights += [pm.WeightSpec.signed_power(r, m, b) for b in bs]
        yield ("per_entry", m,
               [lambda w=w, m=m: pm.expectation(m, w, EPS) for w in weights])
        if with_table:
            yield ("table", m,
                   [lambda m=m, bs=bs: pm.expectation_table(m, m, ORDER, EPS, bs)])
    for m in SINGLE_MEANS:
        for r in SINGLE_ORDERS:
            w = pm.WeightSpec.abs_power(r, m)
            yield (f"single r={r}", m, [lambda w=w, m=m: pm.expectation(m, w, EPS)])


def measure(src: str, with_table: bool) -> list:
    """Time every case with the package imported from ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    import poisson_moments as pm

    pm.expectation(2.0, pm.WeightSpec.abs_power(3, 2.0), EPS)  # warm-up
    out = []
    for case, m, calls in _cases(pm, with_table):
        ns, reps, capped = time_work(calls, REPEATS, BUDGET_S)
        out.append({"case": case, "m": m, "calls_per_work": len(calls),
                    "median_us": ns / 1e3, "repetitions": reps,
                    "capped": capped})
    return out


def _verify_wall(src: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-m", "poisson_moments", "verify"],
                   env=env, check=True, capture_output=True)
    return (perf_counter_ns() - t0) / 1e3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", help="src directory of the parent tree")
    p.add_argument("--parent-label", default="parent")
    p.add_argument("--out", default="BENCH_3.json")
    p.add_argument("--measure", help=argparse.SUPPRESS)
    p.add_argument("--with-table", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.measure:
        json.dump(measure(args.measure, args.with_table), sys.stdout)
        return 0
    if not args.parent_src:
        p.error("--parent-src is required")

    srcs = {"parent": args.parent_src,
            "change": os.path.join(HERE, "..", "src")}
    walls = {"parent": [], "change": []}

    def measure_side(side: str) -> list:
        walls[side] += [_verify_wall(srcs[side]) for _ in range(VERIFY_RUNS)]
        # the parent tree has no expectation_table
        flags = ("--with-table",) if side == "change" else ()
        return run_child(__file__, srcs[side], *flags)

    runs = alternating_rounds(ROUNDS, measure_side)
    parent, change = (combine(runs[side], ("case", "m"))
                      for side in ("parent", "change"))

    rows = []
    for key, new in change.items():
        case, m = key
        # the parent's side of a table row is its per-entry work
        old = parent.get(("per_entry", m) if case == "table" else key)
        row = {"case": case, "m": m, "calls_per_work": new["calls_per_work"]}
        if old is not None:
            row.update(parent_median_us=round(old["median_us"], 1),
                       parent_capped=old["capped"])
        row.update(change_median_us=round(new["median_us"], 1),
                   change_capped=new["capped"])
        if old is not None:
            row["speedup"] = round(old["median_us"] / new["median_us"], 2)
        rows.append(row)
    wall = {side: statistics.median(ts) / 1e3 for side, ts in walls.items()}
    rows.append({"case": "verify process, default grid", "m": None,
                 "calls_per_work": 1,
                 "parent_median_us": round(wall["parent"] * 1e3, 1),
                 "parent_capped": False,
                 "change_median_us": round(wall["change"] * 1e3, 1),
                 "change_capped": False,
                 "speedup": round(wall["parent"] / wall["change"], 2)})
    doc = {
        "what": "median microseconds per unit of oracle work; the parent side "
                "of a 'table' row is its 'per_entry' work at the same m",
        "parent": args.parent_label,
        "change": "this checkout",
        "eps": EPS,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "budget_s_per_case": BUDGET_S,
        "verify_runs_per_tree": ROUNDS * VERIFY_RUNS,
        "environment": environment(),
        "cases": rows,
    }
    write_json(doc, args.out)
    for r in rows:
        parent_us = r.get("parent_median_us")
        parent_txt = "-" if parent_us is None else f"{parent_us:.1f} us"
        m_txt = "-" if r["m"] is None else f"{r['m']:g}"
        print(f"{r['case']:28} m={m_txt:<6} parent {parent_txt:>16}"
              f"{' (capped)' if r.get('parent_capped') else '':10} "
              f"change {r['change_median_us']:>12.1f} us"
              f"{' (capped)' if r['change_capped'] else '':10} "
              f"x{r.get('speedup', '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
