"""Fast checks of the benchmark harness itself (about a second)."""
import json
import time
from collections import Counter
from pathlib import Path

import pytest

import inputs
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert inputs.make(workload, 1, 3) == inputs.make(workload, 1, 3)
    assert inputs.make(workload, 1, 3) != inputs.make(workload, 1, 4)
    assert inputs.make(workload, 1) != inputs.make(workload, 2)
    assert inputs.make(workload, inputs.HOLDOUT_SEED) != inputs.make(workload, 1)


def test_op_lists_have_the_documented_composition():
    sweep = inputs.make("sweep", 3)
    assert [op["cell"] for op in sweep] == list(inputs.SWEEP_KINDS)
    assert all("with_fidelity = true" in op["ini"] for op in sweep if op["cell"] == "device")

    ladder = Counter(op["cell"] for op in inputs.make("ladder", 3))
    assert set(ladder.values()) == {inputs.LADDER_DRAWS_PER_RUNG}

    transient = inputs.make("transient", 3, 5)
    assert Counter(op["cell"] for op in transient) == {cell[0]: cell[4] for cell in inputs.TRANSIENT_CELLS}
    assert [op["id"] for op in transient] == list(range(len(transient)))


def test_tail_percentile_keeps_ten_ops_beyond_it():
    values = [float(v) for v in range(100)]
    tail = run.nearest_rank(values, run.TAIL_PCT)
    assert sum(v > tail for v in values) == 10
    assert run.nearest_rank(values, 50) == 49.0


def test_self_time_excludes_children_and_children_nest():
    worker = pytest.importorskip("worker")
    tracer = worker.Tracer()
    inner = tracer._span("dynamics.evolve", lambda: time.sleep(0.002))

    def outer_body():
        time.sleep(0.002)
        inner()
        inner()

    tracer._span("cli", outer_body)()
    metrics, bad_nesting = tracer.batch_metrics(0)
    outer, first, second = tracer.spans
    assert bad_nesting == 0
    assert first[3] == second[3] == 0 and outer[3] == -1
    children = (first[2] - first[1]) + (second[2] - second[1])
    assert metrics["cli.self_s"] == pytest.approx(outer[2] - outer[1] - children, abs=1e-12)
    assert metrics["dynamics.evolve.self_s"] == pytest.approx(children, abs=1e-12)
    assert metrics["cli.calls"] == 1 and metrics["dynamics.evolve.calls"] == 2
    assert metrics["device.derive_protocol.calls"] == 0
    # measure() adds the bytes written and run.py the tracing overhead
    assert set(metrics) | {"cli.bytes_written", "trace.overhead_s"} == set(run.PER_LAYER)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
