"""Benchmark of poisson-moments: seeded closed-loop workloads, end to end
and, with ``--trace 1``, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: the library is imported from the
checkout's ``src``.  A human-readable report goes to standard output, then,
as the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result (environment, failure causes,
the tail percentile) is also written to ``.perfbench/`` in the checkout.

A run makes a fixed number of requests: ``--seconds`` of calls at the
workload's nominal rate on the reference machine (``workloads.NOMINAL_RPS``),
in whole blocks of the mix.  So the same seed always makes the same requests
and fails the same ones, and only the times depend on the machine.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several fresh interpreters each importing the package and completing one
fixed request; the rest pool the requests of closed-loop passes in four
fresh workers run one after another, each making a quarter of the requests,
so a single process that happens to run slow or fast moves the result less.
``--trace 1`` runs half as many requests twice in fresh workers, untraced
and then traced, and reports the per-layer figures; the two passes must
produce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import layers
from workloads import KNOWN_DEFECTS, NOMINAL_RPS, WORKLOADS, block_size

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 7
E2E_WORKERS = 4
DEADLINE_S = 170.0  # every run must end within 180 s

UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "latency_p99_ms": "ms", "error_rate": "ratio",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A pass could not be completed; no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def _cmd(self, mode: str, *extra: str) -> list:
        return [sys.executable, WORKER, "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode, *extra]

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def probe(self) -> float:
        """Seconds from starting an interpreter to its first request done."""
        t0 = time.perf_counter()
        with subprocess.Popen(self._cmd("probe"), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              env=self.env) as proc:
            timer = threading.Timer(self._left(), proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                _, err = proc.communicate()
            finally:
                timer.cancel()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode}):\n{err}")
        return t1 - t0

    def worker(self, mode: str, *extra: str) -> dict:
        try:
            proc = subprocess.run(self._cmd(mode, *extra), capture_output=True,
                                  text=True, cwd=ROOT, env=self.env,
                                  timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass failed (exit {proc.returncode}):\n"
                             f"{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(sorted_ns: list, q: float) -> float:
    """Linear-interpolation quantile of sorted samples, in ms."""
    pos = q * (len(sorted_ns) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_ns) - 1)
    return (sorted_ns[lo] + (pos - lo) * (sorted_ns[hi] - sorted_ns[lo])) / 1e6


def _failure_summary(passes: list) -> tuple:
    """(failed request count, causes by count, True if all are known)."""
    known = {cause for cause, _ in KNOWN_DEFECTS.values()}
    by_request: dict = {}
    for part, res in enumerate(passes):
        for index, cause in res["failures"]:
            by_request.setdefault((part, index), set()).add(cause)
    causes = Counter(c for cs in by_request.values() for c in cs)
    return len(by_request), causes, all(c in known for c in causes)


def part_count(workload: str, seconds: float) -> int:
    """Requests per end-to-end worker: ``seconds`` of calls at the nominal
    rate, split over the workers and rounded to whole blocks of the mix."""
    block = block_size(workload)
    blocks = round(seconds * NOMINAL_RPS[workload] / E2E_WORKERS / block)
    return block * max(1, blocks)


def end_to_end(runner: Runner, seconds: float) -> dict:
    setups = [runner.probe() for _ in range(SETUP_PROBES)]
    count = part_count(runner.workload, seconds)
    passes = [runner.worker("e2e", "--count", str(count), "--part", str(part))
              for part in range(E2E_WORKERS)]
    failed, causes, explained = _failure_summary(passes)
    latencies = sorted(x for res in passes for x in res["latencies_ns"])
    n = len(latencies)
    beyond_p99 = n - 1 - int(0.99 * (n - 1))
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": n / (sum(res["wall_ns"] for res in passes) / 1e9),
        "latency_p50_ms": _quantile(latencies, 0.50),
        "latency_p90_ms": _quantile(latencies, 0.90),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in passes),
    }
    extra = {"error_rate": failed / n}
    if beyond_p99 >= 10:
        extra["latency_p99_ms"] = _quantile(latencies, 0.99)
    per_pass = ", ".join(f"{res['n'] / (res['wall_ns'] / 1e9):.4g}"
                         for res in passes)
    notes = [f"setup probes (s): {', '.join(f'{s:.4f}' for s in setups)}",
             f"throughput per worker (1/s): {per_pass}",
             f"latency samples: {n}; beyond p99: {beyond_p99}",
             "oracle-checked results: "
             f"{sum(res['oracle_checked'] for res in passes)}"]
    return {"correct": explained, "attempted": n, "failed": failed,
            "metrics": metrics, "extra": extra, "units": UNITS,
            "causes": causes, "environment": passes[0]["environment"],
            "notes": notes}


def traced(runner: Runner, seconds: float) -> dict:
    count = part_count(runner.workload, seconds) * E2E_WORKERS // 2
    plain = runner.worker("untraced", "--count", str(count))
    rec = runner.worker("traced", "--count", str(plain["n"]),
                        "--out-dir", OUT_DIR)
    failed, causes, explained = _failure_summary([plain])
    same = plain["digest"] == rec["digest"] and plain["n"] == rec["n"]
    metrics = dict(rec["layers"])
    metrics["trace.requests"] = rec["n"]
    metrics["trace.overhead_ratio"] = rec["wall_ns"] / plain["wall_ns"]
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_ms"))
    notes = [f"traced and untraced outputs identical: {same}",
             f"self times {self_total:.3f} ms + unattributed "
             f"{metrics['trace.unattributed_ms']:.3f} ms = traced wall "
             f"{metrics['trace.wall_ms']:.3f} ms",
             f"spans written to {rec['spans_file']}"]
    return {"correct": explained and same, "attempted": plain["n"],
            "failed": failed, "metrics": metrics, "extra": {},
            "causes": causes, "environment": rec["environment"],
            "units": {k: layers.unit_of(k) for k in metrics}, "notes": notes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="poisson-moments benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "poisson_moments", "__init__.py")):
        print(f"error: no poisson_moments package under {SRC}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        res = (traced if args.trace else end_to_end)(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = res["units"]

    env = res["environment"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("closed loop: 1 caller, 1 process, 1 thread")
    shown = dict(res["metrics"], **res["extra"])
    for name, value in shown.items():
        print(f"  {name:<36s} {value:>16.6f} {units[name]}")
    print(f"failed {res['failed']} of {res['attempted']} attempted; causes: "
          + (", ".join(f"{c} x{k}" for c, k in sorted(res["causes"].items()))
             or "none"))
    for note in res["notes"]:
        print(note)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "correct": res["correct"],
                   "attempted": res["attempted"], "failed": res["failed"],
                   "failure_causes": dict(res["causes"]),
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in shown.items()},
                   "notes": res["notes"]}, fh, indent=2)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
