"""One benchmark pass in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, with ``PYTHONPATH`` pointing at
the checkout's ``src``:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--part J] [--count N] [--out-dir DIR]

Modes: ``probe`` imports the package, completes one fixed request of the
workload and prints ``ready`` (the set-up probe); ``e2e`` and ``untraced``
warm up, run the closed loop without tracing and check the outputs;
``traced`` runs the same loop with the recording wrappers installed and
reports per-layer figures.  Each pass makes exactly ``--count`` timed
requests.  ``--part`` picks one of several disjoint
timed streams of the same seed, so a run can spread its requests over
several fresh processes.

The closed loop has one caller in one thread: the next request is made
only after the previous one returns.  Only the call itself is timed; the
benchmark's own bookkeeping between calls is not.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import sys
from array import array
from time import perf_counter_ns

import mpmath

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Table-workload results checked against the oracle per pass.  At m up to
# 3e4 one oracle call sums ~1e5 terms in mpmath (about a second).
ORACLE_SAMPLE = {"tables_bulk": 16, "tables_large_mean": 1, "verify_sweep": 0}


def environment(pm) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "poisson_moments": pm.__version__,
    }


def run_loop(workload: str, seed: int, pm, cli, count: int, recorder=None,
             part: int = 0) -> dict:
    """Closed loop over the first ``count`` requests of the timed stream."""
    latencies = array("q")
    digest = hashlib.sha256()
    failures = []  # [request index, cause]
    sample = []    # reservoir of (index, request, checked value)
    sample_size = ORACLE_SAMPLE[workload]
    eligible = 0
    rng = random.Random(f"{workload}/check/{seed}/{part}")
    total_ns = 0
    timed = workloads.stream(workload, seed, f"timed/{part}")
    for i, req in enumerate(itertools.islice(timed, count)):
        if recorder is not None:
            recorder.request = i
        t0 = perf_counter_ns()
        try:
            result = workloads.execute(req, pm, cli)
        except Exception as exc:  # a failed request; the loop goes on
            t1 = perf_counter_ns()
            cause = f"raised {type(exc).__name__}: {exc}"
            failures.append([i, cause])
            digest.update(cause.encode() + b"\0")
        else:
            t1 = perf_counter_ns()
            digest.update(workloads.canonical(req, result).encode() + b"\0")
            if req.kind == "verify":
                causes = workloads.verify_failure_causes(req, result)
                failures += [[i, c] for c in sorted(set(causes or ()))]
            elif not workloads.all_finite(req, result):
                failures.append([i, "non-finite value"])
            elif sample_size:
                item = (i, req, workloads.checked_value(req, result))
                if eligible < sample_size:
                    sample.append(item)
                else:
                    j = rng.randrange(eligible + 1)
                    if j < sample_size:
                        sample[j] = item
                eligible += 1
        latencies.append(t1 - t0)
        total_ns += t1 - t0
    return {
        "n": len(latencies),
        "wall_ns": total_ns,
        # read before the samples are copied, which would raise the peak
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ns": latencies.tolist(),
        "digest": digest.hexdigest(),
        "failures": failures,
        "sample": sample,
    }


def check_sample(sample: list, oracle) -> list:
    """Oracle checks of the reservoir, outside the timed region."""
    failures = []
    for i, req, value in sample:
        if not workloads.oracle_check(req, value, oracle):
            failures.append([i, "oracle mismatch"])
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=("probe", "e2e", "untraced", "traced"))
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", default=None)
    args = p.parse_args(argv)

    import poisson_moments as pm
    from poisson_moments import cli, oracle
    if not os.path.abspath(pm.__file__).startswith(SRC + os.sep):
        print(f"poisson_moments imported from {pm.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    if args.mode == "probe":
        workloads.execute(next(workloads.stream(args.workload, 0, "probe")), pm, cli)
        print("ready", flush=True)
        return 0

    warm = workloads.stream(args.workload, args.seed, "warm")
    for req in itertools.islice(warm, workloads.WARMUP_REQUESTS[args.workload]):
        workloads.execute(req, pm, cli)

    recorder = layers.Recorder() if args.mode == "traced" else None
    patched = layers.install(recorder) if recorder is not None else []
    try:
        res = run_loop(args.workload, args.seed, pm, cli, args.count, recorder,
                       args.part)
    finally:
        layers.restore(patched)
    sample = res.pop("sample")
    if args.mode == "traced":
        res["layers"] = layers.layer_metrics(recorder.spans, res["wall_ns"])
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir,
                                f"spans-{args.workload}-seed{args.seed}.csv.gz")
            recorder.write(path)
            res["spans_file"] = path
    else:
        res["failures"] += check_sample(sample, oracle)
        res["oracle_checked"] = len(sample)
    res["environment"] = environment(pm)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
