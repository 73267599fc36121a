"""BENCH_trajectory.json, the benchmark pairs of each PR, stays readable
against the benchmark's own declaration: every workload and metric it
names is one BENCHMARK.json declares, and PR numbers increase."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {"workload", "metric", "parent", "change", "parent_iqr", "seconds", "pairs", "lower"}


def test_trajectory_names_only_declared_workloads_and_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    doc = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    assert set(doc["units"]) <= metrics
    numbers = [record["pr"] for record in doc["records"]]
    assert numbers == sorted(set(numbers)), numbers
    for record in doc["records"]:
        for row in record["results"]:
            assert FIELDS <= set(row), (record["pr"], row)
            assert row["workload"] in workloads and row["metric"] in metrics, (record["pr"], row)
            if row["lower"] is not None:
                assert 0 <= row["lower"] <= row["pairs"], (record["pr"], row)
            for runs in (row.get("parent_runs"), row.get("change_runs")):
                assert runs is None or len(runs) == row["pairs"], (record["pr"], row)
