"""The benchmark tracer wraps package functions by name; every name must exist."""
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker.py imports its sibling inputs.py
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_traced_bindings_exist(monkeypatch):
    worker = load_worker(monkeypatch)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in worker.SPANS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    dynamics = importlib.import_module("kickcool.dynamics")
    missing += [
        f"kickcool.dynamics.{attr}"
        for attr in worker.COUNTED
        if not callable(getattr(dynamics, attr, None))
    ]
    assert missing == []
