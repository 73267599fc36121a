"""The benchmark tracer's targets, bench/tracer.py's TARGETS, name
functions the package still has: each is looked up as Tracer.install
looks it up, without wrapping anything, so a rename or deletion that
would fail every traced benchmark operation fails here first."""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_target_resolves_in_the_package():
    tracer = load_tracer()
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        module = importlib.import_module(f"spinhom.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"spinhom.{module_name}.{path}")
    assert missing == []


def test_every_traced_metric_is_declared():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(load_tracer().metric_units()) <= declared
