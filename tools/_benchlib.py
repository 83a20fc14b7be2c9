"""Timing harness shared by the ``tools/bench_*.py`` scripts.

A script times its cases on two source trees, a parent and this checkout.
Each measurement runs in a fresh interpreter, ``python SCRIPT --measure
SRC [flags]``, which imports the package from SRC and prints a JSON list
with one dict per case (``median_us`` and ``capped`` among its fields).
The rounds alternate which tree goes first, so that a slow phase of a
shared machine hits both.  Standard library only, apart from mpmath for
the environment record.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter_ns

import mpmath

SIDES = ("parent", "change")


def time_work(calls: list, repeats: int, budget_s: float) -> tuple:
    """(median ns of the whole work, repetitions, capped).

    The work is the list of zero-argument ``calls``, made in order.  It is
    repeated up to ``repeats`` times and stops once it has used
    ``budget_s`` seconds.  Work that does not fit in the budget even once
    is timed on the calls that fit, scaled to the whole work by the share
    of calls made (the repetitions are then that share), and is capped.
    """
    budget = budget_s * 1e9
    times = []
    spent = 0
    while len(times) < repeats and spent < budget:
        total = 0
        for done, call in enumerate(calls, 1):
            t0 = perf_counter_ns()
            call()
            total += perf_counter_ns() - t0
            if spent + total >= budget and done < len(calls):
                if times:
                    return statistics.median(times), len(times), False
                return total * len(calls) / done, done / len(calls), True
        times.append(total)
        spent += total
    return statistics.median(times), len(times), False


def run_child(script: str, src: str, *flags: str) -> list:
    """The measurements ``script --measure src flags`` prints, made in a
    fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(script), "--measure", src, *flags]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def alternating_rounds(rounds: int, measure) -> dict:
    """{side: [measure(side) for each round]}, parent first in even rounds
    and change first in odd ones."""
    runs = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(measure(side))
    return runs


def combine(rounds: list, key: tuple, count: str = "repetitions") -> dict:
    """Per case, keyed by its ``key`` fields: the median over rounds of
    ``median_us``, the ``count`` field summed, capped if any round was."""
    out = {}
    for per_case in zip(*rounds):
        first = per_case[0]
        out[tuple(first[k] for k in key)] = dict(
            first,
            median_us=statistics.median(c["median_us"] for c in per_case),
            **{count: sum(c[count] for c in per_case)},
            capped=any(c["capped"] for c in per_case))
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
