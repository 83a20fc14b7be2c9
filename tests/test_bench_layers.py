"""Tests of ``tools/bench_layers.py``: every case that runs in this
interpreter builds and times on this tree, so that a renamed library
function fails here instead of dropping out of the layer benchmark; and
a row's statistics, on synthetic rounds."""

import functools
import importlib.util
import pathlib
import subprocess

import pytest

import poisson_moments as pm

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_layers", ROOT / "tools" / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


def spawns_process(unit) -> bool:
    """Whether a unit's work starts a process: such cases take hundreds of
    milliseconds each and are left to the benchmark itself."""
    _, _, m, r, work = unit
    return any(getattr(call, "func", None) is subprocess.run
               for call in work(pm, m, r))


# the highest order a case runs at here: the cases at the order ceiling
# take seconds in full, and the ceiling itself is pinned by
# test_cases_at_the_ceilings_read_the_package_ceilings
TEST_ORDER = 30


@pytest.mark.parametrize("layer", bench_layers.LAYERS)
def test_layer_measures_every_case(monkeypatch, layer):
    monkeypatch.setattr(bench_layers, "MEANS", (2.0,))
    monkeypatch.setattr(bench_layers, "REPEATS", 1)
    monkeypatch.setattr(bench_layers, "BUDGET_S", 0.2)
    todo = [(layer, case, m, r if r is None else min(r, TEST_ORDER), work)
            for layer, case, m, r, work in bench_layers.units((layer,))]
    todo = [unit for unit in todo if not spawns_process(unit)]
    assert todo, f"layer {layer} has no in-process case"
    rows = [bench_layers.measure(str(ROOT / "src"), unit) for unit in todo]
    assert {row["case"] for row in rows} == {unit[1] for unit in todo}
    for row in rows:
        assert row["calls_per_work"] is not None, f"{row['case']} is missing"
        assert row["median_us"] > 0


def test_cases_at_the_ceilings_read_the_package_ceilings():
    assert bench_layers.MAX_ORDER == pm.core.MAX_ORDER


def test_each_repetition_starts_with_empty_memos():
    # a repeated cdf call would otherwise time the hit its first
    # repetition left behind; the memos are found, not named
    memos = [value for module in (pm.core, pm.recurrences)
             for value in vars(module).values()
             if isinstance(value, functools._lru_cache_wrapper)]
    sizes = []

    def work():
        sizes.append([memo.cache_info().currsize for memo in memos])
        pm.signed_moment_table(3.0, 3.0, 3.0, 4)

    bench_layers.time_work([work], 3, 5.0,
                           lambda: bench_layers._clear_memos(pm))
    assert sizes == [[0] * len(memos)] * 3
    # the cdf at floor(b) = 3 < 64 sums up from e^-m, the anchor's n = 0
    # entry, and the factor takes p_3, itself from that entry: one cdf
    # pair and two anchors, in two memos
    assert sorted(memo.cache_info().currsize for memo in memos) == [1, 2]


def _rounds(times, capped=False):
    """Per-round dicts of one unit on one tree, with the given medians."""
    key = {"layer": "oracle", "case": "table", "m": 2.0, "r": 10}
    return [dict(key, calls_per_work=1, median_us=us, capped=capped)
            for us in times]


def test_row_pairs_the_two_trees_round_by_round():
    # the change tree stalls in round 3: the ratio of the medians reads
    # 1.5, while four of the five paired ratios, and their median, read 2
    parent = _rounds([10.0, 20.0, 30.0, 40.0, 50.0])
    change = _rounds([5.0, 10.0, 60.0, 20.0, 25.0])
    row = bench_layers._row(parent, change)
    assert row["parent_median_us"] == 30.0 and row["change_median_us"] == 20.0
    assert row["speedup"] == 1.5
    assert (row["paired_speedup"], row["paired_lo"], row["paired_hi"]) == (
        2.0, 0.5, 2.0)
    assert row["calls_per_work"] == 1 and not row["change_capped"]


def test_row_ratios_are_null_when_a_tree_lacks_the_case():
    parent = [dict(r, median_us=None, calls_per_work=None)
              for r in _rounds([1.0, 1.0])]
    row = bench_layers._row(parent, _rounds([3.0, 5.0], capped=True))
    assert row["parent_median_us"] is None and row["change_median_us"] == 4.0
    assert row["speedup"] is None and row["change_capped"]
    assert row["paired_speedup"] is row["paired_lo"] is row["paired_hi"] is None
