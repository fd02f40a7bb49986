"""Checks of the benchmark itself: it times the program's real training
path, its tracer attributes time correctly, and its metric names match
BENCHMARK.json."""
import json
from pathlib import Path

import numpy as np
import pytest

import run as bench
from tracing import Tracer, root_of, self_times


def test_training_loop_matches_train_bit_for_bit(tmp_path):
    assert bench.fidelity_check(tmp_path)


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "d", "parent": 0, "start": 6.0, "end": 8.0},
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    assert root_of(spans) == [0, 0, 0, 0]


def test_tracer_wraps_every_binding_and_restores_them():
    tracer = Tracer("t")
    original = bench.data.load_csv
    tracer.wrap(bench.data, "load_csv", "data.load_csv")
    assert bench.training.load_csv is bench.data.load_csv is not original
    tracer.wrap(bench.T, "add", "tensor.add", bench._tape_count)
    x = bench.T.Tensor(np.ones(3), requires_grad=True)
    with tracer.span("root"):
        y = x + x
    bench.T.clear_tape()
    tracer.uninstall()
    assert bench.training.load_csv is original and bench.data.load_csv is original
    assert [s["name"] for s in tracer.spans] == ["root", "tensor.add"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["tape"] is True
    assert np.array_equal(y.data, np.full(3, 2.0))


def test_tail_needs_ten_samples_beyond_it():
    value, pct = bench.tail(list(range(100)))
    assert pct == pytest.approx(90.0) and value == pytest.approx(89.1)
    assert bench.tail([1.0, 2.0, 3.0])[1] == 50.0


def test_matches_is_exact_on_integers_and_tolerant_on_floats():
    assert bench.matches([1.0, 3], [1.0 + 1e-13, 3])
    assert not bench.matches([1.0, 3], [1.0, 4])
    assert not bench.matches([1.0 + 1e-6], [1.0])
    assert not bench.matches({"a": [1.0]}, {"a": [1.0, 2.0]})


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(bench.REPO_ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(bench.END_TO_END.values())
    spans = [{"id": 0, "name": "forecast", "parent": None, "start": 0.0, "end": 1.0}]
    names = bench.per_layer(spans, 1, "forecast", 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    assert [m["unit"] for m in spec["per_layer"]] == [bench.per_layer_unit(n) for n in names]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
