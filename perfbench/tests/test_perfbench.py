"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
Tiny seeded batches of every workload run traced and untraced; the tests
check the reported metric names against ``BENCHMARK.json``, the accounting
of self times, that every wrapped function is restored, and that the
benchmark refuses to run where the package is missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import poisson_moments as pm  # noqa: E402
from poisson_moments import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {"tables_bulk": 40, "tables_large_mean": 3, "verify_sweep": 2}


def _bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "poisson_moments" or name.startswith("poisson_moments.")
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_batch(workload):
    before = _bindings()
    recorder = layers.Recorder()
    patched = layers.install(recorder)
    try:
        assert _bindings() != before
        traced = worker.run_loop(workload, 7, pm, cli, count=TINY[workload],
                                 recorder=recorder)
    finally:
        layers.restore(patched)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    plain = worker.run_loop(workload, 7, pm, cli, count=TINY[workload])
    assert plain["digest"] == traced["digest"]
    assert plain["n"] == traced["n"] == TINY[workload]

    metrics = layers.layer_metrics(recorder.spans, traced["wall_ns"])
    metrics["trace.requests"] = traced["n"]
    metrics["trace.overhead_ratio"] = traced["wall_ns"] / plain["wall_ns"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: layers.unit_of(k) for k in metrics} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert math.isclose(self_ms + metrics["trace.unattributed_ms"],
                        metrics["trace.wall_ms"], rel_tol=1e-9)
    assert metrics["trace.unattributed_ms"] >= 0
    assert all(s[layers.REQUEST] >= 0 for s in recorder.spans)
    if workload == "verify_sweep":
        assert metrics["cli.main.calls"] == TINY[workload]
        assert metrics["oracle.expectation.terms"] > 0
    else:
        assert metrics["oracle.expectation.calls"] == 0
        assert metrics["recurrences.table.calls"] > 0


def test_streams_are_seeded_and_disjoint():
    def take(seed, role):
        return list(islice(workloads.stream("tables_bulk", seed, role), 200))

    assert take(3, "timed") == take(3, "timed")
    assert take(3, "timed") != take(4, "timed")
    timed = {(r.m, r.a) for r in take(3, "timed")}
    assert not timed & {(r.m, r.a) for r in take(3, "warm")}


def test_bulk_mix_is_exact_per_block():
    block = list(islice(workloads.stream("tables_bulk", 1, "timed"), 100))
    assert sum(r.bits == 256 for r in block) == 15
    assert sorted(r.note for r in block if r.note) == ["root3", "root5"]
    assert all(0.1 <= r.m <= 20 and r.r <= 30 for r in block)
    assert all(r.a >= 0 and r.r % 2 == 1 and r.r <= 15
               for r in block if r.kind == "katti")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_size_is_whole_blocks_fixed_by_seconds(workload):
    block = workloads.block_size(workload)
    for seconds in (0.01, 0.5, 30, 60):
        count = run.part_count(workload, seconds)
        assert count >= block and count % block == 0
    full = run.part_count(workload, 30) * run.E2E_WORKERS
    assert abs(full / workloads.NOMINAL_RPS[workload] - 30) < 5


@pytest.mark.parametrize("m", [0.1, 2.0, 20.0])
def test_moment_root_zeroes_the_third_central_moment(m):
    # E (X - a)^3 = m + 3 m d + d^3 with d = m - a
    d = m - workloads.moment_root(m, 3)
    assert abs(m + 3 * m * d + d ** 3) < 1e-12 * (m + 1)


def test_failed_verify_rows_are_put_down_to_known_defects():
    ext = workloads.Request("verify", 1.0, None, None, 4, 256)
    nat = workloads.Request("verify", 1.0, None, None, 4, None)
    err = ("FAIL method=katti m=1 a=0 b=- r=1 rel_err=3.0e-14\n"
           "FAIL method=shifted m=1 a=0.3 b=- r=2 rel_err=4.0e-17\n")
    failed = (1, "result: FAIL (2 of 9 gated rows)\n", err)
    assert workloads.verify_failure_causes(ext, failed) == [
        "cli-rel-tol", "shift-binary64"]
    assert workloads.verify_failure_causes(nat, failed) == [
        "unexplained", "unexplained"]
    big = (1, "result: FAIL\n", "FAIL method=katti m=1 a=0 b=- r=1 rel_err=1e-3\n")
    assert workloads.verify_failure_causes(ext, big) == ["unexplained"]
    assert workloads.verify_failure_causes(ext, (0, "result: PASS\n", "")) is None


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables_bulk",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
