"""Smoke test of ``tools/bench_layers.py``: every in-process layer's cases
build and time on this tree, so that a renamed library function fails here
instead of dropping out of the layer benchmark."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_layers", ROOT / "tools" / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


@pytest.mark.parametrize("layer", [name for name in bench_layers.LAYERS
                                   if name != "cli"])
def test_layer_measures_every_case(monkeypatch, layer):
    monkeypatch.setattr(bench_layers, "MEANS", (2.0,))
    monkeypatch.setattr(bench_layers, "REPEATS", 1)
    monkeypatch.setattr(bench_layers, "BUDGET_S", 0.2)
    rows = [bench_layers.measure(str(ROOT / "src"), unit)
            for unit in bench_layers.units((layer,))]
    cases = {case for name, case, *_ in bench_layers.CASES if name == layer}
    assert {row["case"] for row in rows} == cases
    for row in rows:
        assert row["calls_per_work"] is not None, f"{row['case']} is missing"
        assert row["median_us"] > 0
